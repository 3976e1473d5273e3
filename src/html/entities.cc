#include "src/html/entities.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

#include "src/util/strings.h"

namespace thor::html {

namespace {

struct EntityEntry {
  std::string_view name;
  std::string_view utf8;
};

// Sorted by name for binary search. A practical subset: the full C0/Latin-1
// named set plus the symbols that appear in real-world deep-web pages.
constexpr EntityEntry kEntities[] = {
    {"AElig", "\xC3\x86"},   {"Aacute", "\xC3\x81"},  {"Acirc", "\xC3\x82"},
    {"Agrave", "\xC3\x80"},  {"Aring", "\xC3\x85"},   {"Atilde", "\xC3\x83"},
    {"Auml", "\xC3\x84"},    {"Ccedil", "\xC3\x87"},  {"ETH", "\xC3\x90"},
    {"Eacute", "\xC3\x89"},  {"Ecirc", "\xC3\x8A"},   {"Egrave", "\xC3\x88"},
    {"Euml", "\xC3\x8B"},    {"Iacute", "\xC3\x8D"},  {"Icirc", "\xC3\x8E"},
    {"Igrave", "\xC3\x8C"},  {"Iuml", "\xC3\x8F"},    {"Ntilde", "\xC3\x91"},
    {"Oacute", "\xC3\x93"},  {"Ocirc", "\xC3\x94"},   {"Ograve", "\xC3\x92"},
    {"Oslash", "\xC3\x98"},  {"Otilde", "\xC3\x95"},  {"Ouml", "\xC3\x96"},
    {"THORN", "\xC3\x9E"},   {"Uacute", "\xC3\x9A"},  {"Ucirc", "\xC3\x9B"},
    {"Ugrave", "\xC3\x99"},  {"Uuml", "\xC3\x9C"},    {"Yacute", "\xC3\x9D"},
    {"aacute", "\xC3\xA1"},  {"acirc", "\xC3\xA2"},   {"acute", "\xC2\xB4"},
    {"aelig", "\xC3\xA6"},   {"agrave", "\xC3\xA0"},  {"amp", "&"},
    {"apos", "'"},           {"aring", "\xC3\xA5"},   {"atilde", "\xC3\xA3"},
    {"auml", "\xC3\xA4"},    {"bdquo", "\xE2\x80\x9E"},
    {"brvbar", "\xC2\xA6"},  {"bull", "\xE2\x80\xA2"},
    {"ccedil", "\xC3\xA7"},  {"cedil", "\xC2\xB8"},   {"cent", "\xC2\xA2"},
    {"copy", "\xC2\xA9"},    {"curren", "\xC2\xA4"},
    {"dagger", "\xE2\x80\xA0"},                       {"deg", "\xC2\xB0"},
    {"divide", "\xC3\xB7"},  {"eacute", "\xC3\xA9"},  {"ecirc", "\xC3\xAA"},
    {"egrave", "\xC3\xA8"},  {"emsp", "\xE2\x80\x83"},
    {"ensp", "\xE2\x80\x82"},                         {"eth", "\xC3\xB0"},
    {"euml", "\xC3\xAB"},    {"euro", "\xE2\x82\xAC"},
    {"frac12", "\xC2\xBD"},  {"frac14", "\xC2\xBC"},  {"frac34", "\xC2\xBE"},
    {"gt", ">"},             {"hellip", "\xE2\x80\xA6"},
    {"iacute", "\xC3\xAD"},  {"icirc", "\xC3\xAE"},   {"iexcl", "\xC2\xA1"},
    {"igrave", "\xC3\xAC"},  {"iquest", "\xC2\xBF"},  {"iuml", "\xC3\xAF"},
    {"laquo", "\xC2\xAB"},   {"ldquo", "\xE2\x80\x9C"},
    {"lsaquo", "\xE2\x80\xB9"},
    {"lsquo", "\xE2\x80\x98"},                        {"lt", "<"},
    {"macr", "\xC2\xAF"},    {"mdash", "\xE2\x80\x94"},
    {"micro", "\xC2\xB5"},   {"middot", "\xC2\xB7"},
    {"nbsp", "\xC2\xA0"},                             {"ndash", "\xE2\x80\x93"},
    {"not", "\xC2\xAC"},     {"ntilde", "\xC3\xB1"},  {"oacute", "\xC3\xB3"},
    {"ocirc", "\xC3\xB4"},   {"ograve", "\xC3\xB2"},  {"ordf", "\xC2\xAA"},
    {"ordm", "\xC2\xBA"},    {"oslash", "\xC3\xB8"},  {"otilde", "\xC3\xB5"},
    {"ouml", "\xC3\xB6"},    {"para", "\xC2\xB6"},    {"plusmn", "\xC2\xB1"},
    {"pound", "\xC2\xA3"},   {"quot", "\""},          {"raquo", "\xC2\xBB"},
    {"rdquo", "\xE2\x80\x9D"},
    {"reg", "\xC2\xAE"},     {"rsaquo", "\xE2\x80\xBA"},
    {"rsquo", "\xE2\x80\x99"},                        {"sect", "\xC2\xA7"},
    {"shy", "\xC2\xAD"},     {"sup1", "\xC2\xB9"},    {"sup2", "\xC2\xB2"},
    {"sup3", "\xC2\xB3"},    {"szlig", "\xC3\x9F"},   {"thorn", "\xC3\xBE"},
    {"times", "\xC3\x97"},   {"trade", "\xE2\x84\xA2"},
    {"uacute", "\xC3\xBA"},  {"ucirc", "\xC3\xBB"},   {"ugrave", "\xC3\xB9"},
    {"uml", "\xC2\xA8"},     {"uuml", "\xC3\xBC"},    {"yacute", "\xC3\xBD"},
    {"yen", "\xC2\xA5"},     {"yuml", "\xC3\xBF"},
};

bool SortedByName() {
  for (size_t i = 1; i < std::size(kEntities); ++i) {
    if (!(kEntities[i - 1].name < kEntities[i].name)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::string_view> LookupNamedEntity(std::string_view name) {
  static const bool sorted = SortedByName();
  (void)sorted;
  assert(sorted && "entity table must stay sorted");
  auto it = std::lower_bound(
      std::begin(kEntities), std::end(kEntities), name,
      [](const EntityEntry& e, std::string_view n) { return e.name < n; });
  if (it != std::end(kEntities) && it->name == name) return it->utf8;
  return std::nullopt;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp == 0 || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    cp = 0xFFFD;
  }
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

std::string DecodeEntities(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (c != '&') {
      out.push_back(c);
      ++i;
      continue;
    }
    // Try to parse a reference starting at i.
    size_t j = i + 1;
    if (j < input.size() && input[j] == '#') {
      ++j;
      bool hex = j < input.size() && (input[j] == 'x' || input[j] == 'X');
      if (hex) ++j;
      uint32_t cp = 0;
      size_t digits_start = j;
      while (j < input.size()) {
        char d = input[j];
        uint32_t v;
        if (IsAsciiDigit(d)) {
          v = static_cast<uint32_t>(d - '0');
        } else if (hex && d >= 'a' && d <= 'f') {
          v = static_cast<uint32_t>(d - 'a' + 10);
        } else if (hex && d >= 'A' && d <= 'F') {
          v = static_cast<uint32_t>(d - 'A' + 10);
        } else {
          break;
        }
        cp = cp * (hex ? 16u : 10u) + v;
        if (cp > 0x110000) cp = 0x110000;  // clamp; will become U+FFFD
        ++j;
      }
      if (j == digits_start) {
        out.push_back('&');  // "&#" with no digits: literal
        ++i;
        continue;
      }
      AppendUtf8(cp, &out);
      if (j < input.size() && input[j] == ';') ++j;
      i = j;
      continue;
    }
    size_t name_end = j;
    while (name_end < input.size() && IsAsciiAlnum(input[name_end])) {
      ++name_end;
    }
    if (name_end > j) {
      auto decoded = LookupNamedEntity(input.substr(j, name_end - j));
      if (decoded.has_value()) {
        out.append(*decoded);
        if (name_end < input.size() && input[name_end] == ';') ++name_end;
        i = name_end;
        continue;
      }
    }
    out.push_back('&');
    ++i;
  }
  return out;
}

}  // namespace thor::html
