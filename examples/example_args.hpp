#pragma once
/// \file example_args.hpp
/// \brief Whole-token number parsing for the examples' command lines.
///
/// Every number an example reads goes through parse_number(), which takes
/// the token whole with std::from_chars (as bench::parse_count and
/// tools/debug_crowd.cpp do): "abc", "12x", "+3", a negative count or a
/// value below the argument's minimum prints the example's usage on
/// stderr and exits with code 2, instead of running on a silent 0.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>
#include <type_traits>

namespace tofmcl::examples {

/// Prints `what` and `usage` on stderr and exits with code 2.
[[noreturn]] inline void usage_error(const char* what, const char* usage) {
  std::fprintf(stderr, "%s\n%s", what, usage);
  std::exit(2);
}

/// `text` parsed whole as a T. A non-number, a sign T does not take (any
/// sign on an unsigned type, a leading '+'), trailing characters, an
/// out-of-range or non-finite value, or a value below `min` is a usage
/// error.
template <typename T>
T parse_number(const char* text, const char* usage,
               T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [last, error] = std::from_chars(text, end, value);
  bool ok = error == std::errc() && last == end && !(value < min);
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "invalid number: '%s'\n%s", text, usage);
    std::exit(2);
  }
  return value;
}

}  // namespace tofmcl::examples
