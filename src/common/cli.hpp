#pragma once
/// \file cli.hpp
/// Minimal --key=value flag parser for examples and benches. Not a general
/// argument library: just enough to parameterise experiment harnesses
/// (sizes, seeds, core counts) without external dependencies.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "common/enum_names.hpp"

namespace raa {

/// Parses flags of the form --name=value or --name (boolean true).
/// Unrecognised positional arguments are ignored.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Look up a flag; returns fallback when absent or malformed.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// True when the flag appeared on the command line.
  bool has(const std::string& name) const;

  /// Strict lookups for flags whose bad values are usage errors. An absent
  /// flag leaves `out` untouched and returns true; a present one must be a
  /// decimal integer >= `min` that fits T (get_uint) or a name from the
  /// enum's table (get_enum), else the call prints a diagnostic to stderr
  /// and returns false.
  template <class T>
  bool get_uint(const std::string& name, T min, std::optional<T>& out) const {
    T v{};
    const bool ok = get_uint(name, min, v);
    if (ok && has(name)) out = v;
    return ok;
  }

  template <class T>
  bool get_uint(const std::string& name, T min, T& out) const {
    if (!has(name)) return true;
    const std::string s = get_string(name, "");
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size() || v < min) {
      std::fprintf(stderr, "error: --%s must be an integer >= %llu, got '%s'\n",
                   name.c_str(), static_cast<unsigned long long>(min),
                   s.c_str());
      return false;
    }
    out = v;
    return true;
  }

  template <class E>
  bool get_enum(const std::string& name, std::optional<E>& out) const {
    if (!has(name)) return true;
    const std::string s = get_string(name, "");
    out = from_string<E>(s);
    if (!out)
      std::fprintf(stderr, "error: --%s: %s\n", name.c_str(),
                   unknown_name_error<E>(name, s).c_str());
    return out.has_value();
  }

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace raa
