#pragma once
/// \file enum_names.hpp
/// One name table per enum. An enum that is read from text (scenario
/// files, manifests, command lines) and written back (reports, tables)
/// declares its `{value, name}` pairs once, in a constexpr `enum_names(E)`
/// next to the enum (found by argument-dependent lookup). Both directions
/// and the "want a, b or c" diagnostic read that one table, so the parser
/// and the writer cannot drift apart.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace raa {

template <class E>
struct EnumName {
  E value;
  const char* name;
};

/// The table's name for `e`; "?" for a value outside the table.
template <class E>
constexpr const char* enum_name(E e) noexcept {
  for (const auto& n : enum_names(E{}))
    if (n.value == e) return n.name;
  return "?";
}

/// The value named `s`, or nullopt for a name not in the table.
template <class E>
constexpr std::optional<E> from_string(std::string_view s) noexcept {
  for (const auto& n : enum_names(E{}))
    if (s == n.name) return n.value;
  return std::nullopt;
}

/// "unknown <what> '<s>' (want a, b or c)": the one diagnostic for a name
/// that is not in E's table.
template <class E>
std::string unknown_name_error(std::string_view what, std::string_view s) {
  const auto table = enum_names(E{});
  std::string out = "unknown " + std::string{what} + " '" + std::string{s} +
                    "' (want ";
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i > 0) out += i + 1 == table.size() ? " or " : ", ";
    out += table[i].name;
  }
  return out + ")";
}

}  // namespace raa
