#pragma once
/// \file json.hpp
/// Minimal JSON value with a writer and parser, used by the benchmark
/// report layer (BENCH_results.json, bench/baselines/*.json). Not a
/// general-purpose JSON library: objects preserve insertion order, all
/// numbers are doubles, and there are no custom allocators or SAX hooks —
/// just enough to emit and diff benchmark reports without an external
/// dependency.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace raa::json {

class Value;

/// Arrays are plain vectors of values.
using Array = std::vector<Value>;

/// Objects are insertion-ordered member lists. The parser rejects
/// duplicate keys (a hand-edited scenario/baseline file with a repeated
/// key is almost certainly a mistake, and silently keeping one of the two
/// values would mask it); hand-built Objects may still contain them, and
/// find() returns the first match.
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

/// A JSON document node: null, bool, number, string, array or object.
class Value {
 public:
  Value() noexcept : v_(nullptr) {}
  Value(std::nullptr_t) noexcept : v_(nullptr) {}
  Value(bool b) noexcept : v_(b) {}
  Value(double d) noexcept : v_(d) {}
  Value(int i) noexcept : v_(static_cast<double>(i)) {}
  Value(long i) noexcept : v_(static_cast<double>(i)) {}
  Value(unsigned i) noexcept : v_(static_cast<double>(i)) {}
  Value(unsigned long i) noexcept : v_(static_cast<double>(i)) {}
  Value(const char* s) : v_(std::string{s}) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_number() const noexcept { return holds<double>(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<Array>(); }
  bool is_object() const noexcept { return holds<Object>(); }

  /// Checked accessors: the caller must have tested the type first.
  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// First member with the given key, or nullptr when absent (or when this
  /// value is not an object).
  const Value* find(std::string_view key) const noexcept;
  Value* find(std::string_view key) noexcept;

  /// Insert or overwrite a member; turns a null value into an object.
  Value& set(std::string key, Value v);

  /// Append to an array; turns a null value into an array.
  void push_back(Value v);

  /// Render as JSON text. indent == 0 produces a compact single line;
  /// indent > 0 pretty-prints with that many spaces per nesting level.
  /// Non-finite numbers are emitted as null (JSON has no NaN/Inf).
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON document. Returns nullopt on malformed input
  /// (including duplicate object keys) and, when `error` is non-null,
  /// stores a human-readable reason with the 1-based line and column of
  /// the offending byte.
  static std::optional<Value> parse(std::string_view text,
                                    std::string* error = nullptr);

  /// parse() over the contents of the file at `path`; errors are prefixed
  /// with "<path>: ".
  static std::optional<Value> parse_file(const std::string& path,
                                         std::string* error = nullptr);

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(v_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// JSON string escaping (quotes, backslash, control characters); exposed
/// separately so tests can cover it directly. Returns the escaped body
/// without surrounding quotes; non-ASCII bytes pass through (UTF-8).
std::string escape(std::string_view s);

}  // namespace raa::json
