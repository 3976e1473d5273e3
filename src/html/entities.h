#ifndef THOR_HTML_ENTITIES_H_
#define THOR_HTML_ENTITIES_H_

#include <optional>
#include <string>
#include <string_view>

namespace thor::html {

/// Looks up a named HTML character reference (without '&' and ';'),
/// e.g. "amp" -> "&", "nbsp" -> " " (U+00A0 as UTF-8). Returns nullopt for
/// unknown names. Covers the HTML 4.01 entity set used in real pages plus
/// the common Latin-1 range.
std::optional<std::string_view> LookupNamedEntity(std::string_view name);

/// Appends the UTF-8 encoding of a Unicode code point to `out`. Invalid
/// code points (surrogates, > U+10FFFF, NUL) are replaced with U+FFFD.
void AppendUtf8(uint32_t code_point, std::string* out);

/// Decodes all character references ("&amp;", "&#65;", "&#x41;") in `input`.
/// Malformed references are passed through verbatim, matching browser
/// leniency. This is what the tokenizer applies to text and attribute data.
std::string DecodeEntities(std::string_view input);

}  // namespace thor::html

#endif  // THOR_HTML_ENTITIES_H_
