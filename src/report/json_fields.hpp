#pragma once
/// \file json_fields.hpp
/// Strict typed reads of JSON values for the hand-edited input schemas
/// (scenario files, fleet manifests). The first failure wins and its
/// message carries the JSON path of the offending value.

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "common/enum_names.hpp"
#include "report/json.hpp"

namespace raa::json {

/// Error sink: the first failure is kept as "<path>: <message>".
struct Ctx {
  std::string* error = nullptr;

  bool fail(const std::string& path, const std::string& msg) {
    if (error && error->empty()) *error = path + ": " + msg;
    return false;
  }
};

/// A non-negative integer a double holds exactly (at most 2^53).
inline bool to_u64(Ctx& c, const Value& v, const std::string& path,
                   std::uint64_t& out) {
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
  if (!v.is_number()) return c.fail(path, "expected a non-negative integer");
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > kMaxExactInt)
    return c.fail(path, "expected a non-negative integer");
  out = static_cast<std::uint64_t>(d);
  return true;
}

inline bool to_u32(Ctx& c, const Value& v, const std::string& path,
                   std::uint32_t& out) {
  std::uint64_t x = 0;
  if (!to_u64(c, v, path, x)) return false;
  if (x > std::numeric_limits<std::uint32_t>::max())
    return c.fail(path, "value does not fit in 32 bits");
  out = static_cast<std::uint32_t>(x);
  return true;
}

inline bool to_str(Ctx& c, const Value& v, const std::string& path,
                   std::string& out) {
  if (!v.is_string()) return c.fail(path, "expected a string");
  out = v.as_string();
  return true;
}

/// A string naming a value of E's name table (common/enum_names.hpp);
/// `what` names the field in the "unknown ..." diagnostic.
template <class E>
bool to_enum(Ctx& c, const Value& v, const std::string& path,
             std::string_view what, E& out) {
  std::string s;
  if (!to_str(c, v, path, s)) return false;
  const auto e = from_string<E>(s);
  if (!e) return c.fail(path, unknown_name_error<E>(what, s));
  out = *e;
  return true;
}

template <class E>
bool to_enum(Ctx& c, const Value& v, const std::string& path,
             std::string_view what, std::optional<E>& out) {
  return to_enum(c, v, path, what, out.emplace());
}

/// Strict schema: every key of `obj` must be in `allowed`.
inline bool check_keys(Ctx& c, const Value& obj, const std::string& path,
                       std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.as_object()) {
    bool ok = false;
    for (const char* a : allowed) ok = ok || key == a;
    if (!ok) return c.fail(path + "." + key, "unknown key");
  }
  return true;
}

}  // namespace raa::json
