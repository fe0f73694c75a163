#ifndef SBQA_UTIL_STRING_UTIL_H_
#define SBQA_UTIL_STRING_UTIL_H_

/// \file
/// printf-style formatting into std::string plus small string helpers.
/// (The toolchain lacks std::format; this wrapper keeps call sites tidy.)

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace sbqa::util {

/// Returns the printf-style formatted string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list flavour of StrFormat.
std::string StrFormatV(const char* fmt, va_list args);

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits `s` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Returns a copy of `s` with leading/trailing ASCII whitespace removed.
std::string Trim(const std::string& s);

/// Formats a double with `prec` digits after the decimal point.
std::string FormatDouble(double v, int prec = 3);

/// Parses all of `text` as one T (std::from_chars): false on an empty
/// string, trailing characters, a sign on an unsigned type, an
/// out-of-range value or a non-finite double. *out is untouched on
/// failure. The command-line tools parse every numeric flag with it.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace sbqa::util

#endif  // SBQA_UTIL_STRING_UTIL_H_
