// String helpers used by the parsers and pretty printers.
//
// Character classes are plain ASCII (the "C" locale's sets), never the
// <cctype> functions: what a parser accepts must not depend on the locale
// of the process that embeds the library. Bytes 0x80-0xFF are in no class.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fdc {

/// ' ', '\t', '\n', '\v', '\f', '\r'.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

inline bool IsAsciiAlpha(char c) {
  const unsigned folded = static_cast<unsigned char>(c) | 0x20u;
  return folded - 'a' < 26u;
}

inline bool IsIdentStart(char c) { return IsAsciiAlpha(c) || c == '_'; }

inline bool IsIdentChar(char c) { return IsIdentStart(c) || IsAsciiDigit(c); }

inline char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c;
}

inline std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

inline std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiToLower(c);
  return out;
}

/// Case-insensitive comparison for SQL keywords.
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

/// Joins items with a separator; items must be string-convertible.
inline std::string JoinStrings(const std::vector<std::string>& items,
                               std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

}  // namespace fdc
