// Strict number parsing for command-line flags and environment variables:
// the whole text must be one number of the target type. Replaces atoi-style
// parsing, which reads "1x" as 1 and "foo" as 0 without complaint.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace ocn {

/// `text` as a T when all of it is one number that fits T (std::from_chars:
/// locale-independent, no leading whitespace or '+', no sign on an unsigned
/// T); otherwise nullopt.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// The value `text` given for command-line flag `flag`, by parse_number;
/// otherwise throws std::invalid_argument
/// "<flag>: expected an integer, got '<text>'" ("a number" for a
/// floating-point T).
template <typename T>
T flag_value(std::string_view flag, std::string_view text) {
  if (const std::optional<T> v = parse_number<T>(text)) return *v;
  throw std::invalid_argument(std::string(flag) + ": expected " +
                              (std::is_integral_v<T> ? "an integer" : "a number") +
                              ", got '" + std::string(text) + "'");
}

/// A LO:HI:STEP range given for command-line flag `flag`.
struct NumberRange {
  double lo = 0, hi = 0, step = 0;
};

/// `text` as LO:HI:STEP when it is three numbers (parse_number) with LO <= HI
/// and a finite STEP > 0 that moves both LO and HI (which rules out infinite
/// ends and steps below their precision), so a loop from LO by STEP passes
/// HI; otherwise throws std::invalid_argument
/// "<flag>: expected LO:HI:STEP with LO <= HI and STEP > 0, got '<text>'".
inline NumberRange range_value(std::string_view flag, std::string_view text) {
  const std::size_t a = text.find(':');
  const std::size_t b = a == std::string_view::npos ? a : text.find(':', a + 1);
  if (b != std::string_view::npos) {
    const auto lo = parse_number<double>(text.substr(0, a));
    const auto hi = parse_number<double>(text.substr(a + 1, b - a - 1));
    const auto step = parse_number<double>(text.substr(b + 1));
    if (lo && hi && step && *lo <= *hi && *step > 0 && std::isfinite(*step) &&
        *lo + *step > *lo && *hi + *step > *hi) {
      return {*lo, *hi, *step};
    }
  }
  throw std::invalid_argument(std::string(flag) +
                              ": expected LO:HI:STEP with LO <= HI and STEP > 0, got '" +
                              std::string(text) + "'");
}

}  // namespace ocn
