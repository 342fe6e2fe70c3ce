// Strict parsing of command-line counts and numbers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace mlcr::util {

/// `text` as a non-negative decimal that fits std::size_t: the whole string,
/// digits only (no sign, no space, no suffix). Throws CheckError naming
/// `what` (the flag or argument) otherwise, so a typo reads as an error
/// instead of 0, and "-1" instead of a wrapped 2^64 - 1.
[[nodiscard]] inline std::size_t parse_count(std::string_view text,
                                             std::string_view what) {
  std::size_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  MLCR_CHECK_MSG(!text.empty() && ec == std::errc() && ptr == end,
                 what << " needs a non-negative integer that fits size_t, got '"
                      << text << "'");
  return value;
}

/// `text` as a finite decimal number: the whole string (no leading space or
/// '+', no suffix), and neither nan nor inf, which would make every
/// threshold comparison false. Throws CheckError naming `what` otherwise.
/// Range checks (a threshold >= 0, a fraction > 0) stay with the caller.
[[nodiscard]] inline double parse_number(std::string_view text,
                                         std::string_view what) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  MLCR_CHECK_MSG(!text.empty() && ec == std::errc() && ptr == end &&
                     std::isfinite(value),
                 what << " needs a finite numeric value, got '" << text
                      << "'");
  return value;
}

}  // namespace mlcr::util
