#include "report/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace raa::json {

namespace {

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

void dump_value(std::string& out, const Value& v, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(out, v.as_number());
  } else if (v.is_string()) {
    out.push_back('"');
    out += escape(v.as_string());
    out.push_back('"');
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) out.push_back(',');
      newline(depth + 1);
      dump_value(out, a[i], indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const auto& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) out.push_back(',');
      newline(depth + 1);
      out.push_back('"');
      out += escape(o[i].first);
      out += indent > 0 ? "\": " : "\":";
      dump_value(out, o[i].second, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

/// Recursive-descent parser over a string_view; single-error, tagged with
/// the line/column (1-based) of the offending byte so hand-edited inputs
/// (scenario files) get an actionable diagnostic.
struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  static constexpr int kMaxDepth = 64;

  std::string position(std::size_t at) const {
    std::size_t line = 1;
    std::size_t bol = 0;  // offset of the current line's first byte
    for (std::size_t k = 0; k < at && k < s.size(); ++k) {
      if (s[k] == '\n') {
        ++line;
        bol = k + 1;
      }
    }
    return "line " + std::to_string(line) + ", column " +
           std::to_string(at - bol + 1);
  }

  bool fail(const std::string& msg) { return fail_at(msg, i); }

  bool fail_at(const std::string& msg, std::size_t at) {
    if (err.empty()) err = msg + " at " + position(at);
    return false;
  }

  void skip_ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
      ++i;
  }

  bool consume(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) == word) {
      i += word.size();
      return true;
    }
    return fail("invalid literal");
  }

  bool hex4(unsigned& out) {
    if (i + 4 > s.size()) return fail("truncated \\u escape");
    out = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s[i + static_cast<std::size_t>(k)];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    i += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (true) {
      if (i >= s.size()) return fail("unterminated string");
      const char c = s[i++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i >= s.size()) return fail("truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (i + 1 < s.size() && s[i] == '\\' && s[i + 1] == 'u') {
              i += 2;
              unsigned lo = 0;
              if (!hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF)
                return fail("unpaired surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_number(double& out) {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-'))
      ++i;
    const auto res = std::from_chars(s.data() + start, s.data() + i, out);
    if (res.ec != std::errc{} || res.ptr != s.data() + i) {
      i = start;
      return fail("bad number");
    }
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == 'n') {
      if (!literal("null")) return false;
      out = Value{nullptr};
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      out = Value{true};
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      out = Value{false};
      return true;
    }
    if (c == '"') {
      std::string str;
      if (!parse_string(str)) return false;
      out = Value{std::move(str)};
      return true;
    }
    if (c == '[') {
      ++i;
      Array arr;
      skip_ws();
      if (consume(']')) {
        out = Value{std::move(arr)};
        return true;
      }
      while (true) {
        Value elem;
        if (!parse_value(elem, depth + 1)) return false;
        arr.push_back(std::move(elem));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
      out = Value{std::move(arr)};
      return true;
    }
    if (c == '{') {
      ++i;
      Object obj;
      skip_ws();
      if (consume('}')) {
        out = Value{std::move(obj)};
        return true;
      }
      while (true) {
        skip_ws();
        const std::size_t key_pos = i;
        std::string key;
        if (!parse_string(key)) return false;
        for (const auto& member : obj)
          if (member.first == key)
            return fail_at("duplicate object key \"" + escape(key) + "\"",
                           key_pos);
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        Value val;
        if (!parse_value(val, depth + 1)) return false;
        obj.emplace_back(std::move(key), std::move(val));
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
      out = Value{std::move(obj)};
      return true;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      double d = 0;
      if (!parse_number(d)) return false;
      out = Value{d};
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

Value* Value::find(std::string_view key) noexcept {
  return const_cast<Value*>(static_cast<const Value*>(this)->find(key));
}

Value& Value::set(std::string key, Value v) {
  if (is_null()) v_ = Object{};
  auto& obj = as_object();
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
  return obj.back().second;
}

void Value::push_back(Value v) {
  if (is_null()) v_ = Array{};
  as_array().push_back(std::move(v));
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(out, *this, indent, 0);
  return out;
}

std::optional<Value> Value::parse(std::string_view text, std::string* error) {
  Parser p{text};
  Value v;
  if (!p.parse_value(v, 0)) {
    if (error) *error = p.err;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    if (error) *error = "trailing characters at " + p.position(p.i);
    return std::nullopt;
  }
  return v;
}

std::optional<Value> Value::parse_file(const std::string& path,
                                       std::string* error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    if (error) *error = path + ": cannot open for reading";
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = parse(ss.str(), error);
  if (!doc && error) *error = path + ": " + *error;
  return doc;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace raa::json
