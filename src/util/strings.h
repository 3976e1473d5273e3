#ifndef THOR_UTIL_STRINGS_H_
#define THOR_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace thor {

/// ASCII-only character classification (HTML and term tokenization must not
/// be locale-dependent).
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
inline bool IsAsciiAlnum(char c) { return IsAsciiAlpha(c) || IsAsciiDigit(c); }
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f';
}
constexpr char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercases ASCII letters in place; leaves other bytes untouched.
std::string AsciiLower(std::string_view s);

/// Splits on a single-character delimiter; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a delimiter.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Trims ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Collapses runs of ASCII whitespace into single spaces and trims the ends.
/// Used when normalizing HTML content-node text.
std::string CollapseWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive (ASCII) equality, used for tag/attribute names.
bool EqualsIgnoreAsciiCase(std::string_view a, std::string_view b);

}  // namespace thor

#endif  // THOR_UTIL_STRINGS_H_
