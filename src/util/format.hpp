// Stream-free number formatting for component names.
//
// Component names (DrwpPolicy::name() and friends) are written into
// every checkpoint object record and compared on restore, so they must
// keep the exact text `std::ostream << double` has always produced.
// Building an ostringstream per call costs about a microsecond; these
// helpers produce the same text with std::to_chars.
#pragma once

#include <charconv>
#include <string>

namespace repl {

/// Formats `v` exactly as `std::ostream << v` does under the default
/// stream state (printf "%g", precision 6): 0.3, 1, 1e-07, 0.123457,
/// 2.5e+10, inf, nan.
inline std::string format_general(double v) {
  char buffer[32];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), v, std::chars_format::general, 6);
  return std::string(buffer, result.ptr);
}

}  // namespace repl
