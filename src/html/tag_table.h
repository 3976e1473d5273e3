#ifndef THOR_HTML_TAG_TABLE_H_
#define THOR_HTML_TAG_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace thor::html {

/// Interned identifier for a (lowercased) tag name. Identifiers are stable
/// for the lifetime of the process, so tag-tree signatures from different
/// pages share a vocabulary. Well-known tags get small fixed ids (see
/// `Tag::k*`), unknown tags are interned on first use.
using TagId = int32_t;

/// The well-known tags, in id order: each tag's id is its position in this
/// list, from html = 0 to noscript = 66. The one list fixes both `Tag::k*`
/// and the immutable table that resolves these names without a lock. The
/// ids feed `TagPathSymbol`, so append new tags; never reorder.
#define THOR_HTML_WELL_KNOWN_TAGS(X)                                      \
  X(Html, "html") X(Head, "head") X(Body, "body") X(Title, "title")       \
  X(Meta, "meta") X(Link, "link") X(Script, "script") X(Style, "style")   \
  X(Base, "base") X(P, "p") X(Div, "div") X(Span, "span")                 \
  X(Table, "table") X(Tr, "tr") X(Td, "td") X(Th, "th") X(Thead, "thead") \
  X(Tbody, "tbody") X(Tfoot, "tfoot") X(Ul, "ul") X(Ol, "ol") X(Li, "li") \
  X(Dl, "dl") X(Dt, "dt") X(Dd, "dd") X(A, "a") X(Img, "img") X(Br, "br") \
  X(Hr, "hr") X(Input, "input") X(Form, "form") X(Select, "select")       \
  X(Option, "option") X(Textarea, "textarea") X(B, "b") X(I, "i")         \
  X(U, "u") X(Em, "em") X(Strong, "strong") X(Font, "font")               \
  X(Small, "small") X(Big, "big") X(H1, "h1") X(H2, "h2") X(H3, "h3")     \
  X(H4, "h4") X(H5, "h5") X(H6, "h6") X(Center, "center")                 \
  X(Blockquote, "blockquote") X(Pre, "pre") X(Code, "code")               \
  X(Nobr, "nobr") X(Label, "label") X(Button, "button")                   \
  X(Caption, "caption") X(Col, "col") X(Colgroup, "colgroup")             \
  X(Frame, "frame") X(Frameset, "frameset") X(Iframe, "iframe")           \
  X(Map, "map") X(Area, "area") X(Param, "param") X(Object, "object")     \
  X(Embed, "embed") X(Noscript, "noscript")

namespace tag_internal {
/// Positions in THOR_HTML_WELL_KNOWN_TAGS.
enum WellKnownPosition : TagId {
#define THOR_HTML_TAG_POSITION(ident, name) k##ident,
  THOR_HTML_WELL_KNOWN_TAGS(THOR_HTML_TAG_POSITION)
#undef THOR_HTML_TAG_POSITION
  kWellKnownCount
};
}  // namespace tag_internal

/// Well-known tag ids. Only tags the library itself consults, and every tag
/// the deep-web simulator emits, are named here; any other tag is still
/// interned and usable.
struct Tag {
#define THOR_HTML_TAG_ID(ident, name) \
  static constexpr TagId k##ident = tag_internal::k##ident;
  THOR_HTML_WELL_KNOWN_TAGS(THOR_HTML_TAG_ID)
#undef THOR_HTML_TAG_ID
};

/// Number of well-known tags; every id below it is a `Tag::k*`.
inline constexpr TagId kWellKnownTagCount = tag_internal::kWellKnownCount;

/// Most names the process-wide registry interns beyond the well-known
/// list. Any request can carry fresh tag names, so the registry is bounded:
/// they take ids kWellKnownTagCount .. kOverflowTag - 1 in order of first
/// arrival, and every new name after that maps to kOverflowTag.
inline constexpr int kMaxDynamicTags = 4096;

/// The one id shared by every name that arrives once the registry is full.
inline constexpr TagId kOverflowTag = kWellKnownTagCount + kMaxDynamicTags;

/// `TagName(kOverflowTag)`. No lexer produces it (tag names are built only
/// from ASCII alphanumerics, '-', '_' and ':'), and interning it returns
/// kOverflowTag, so a persisted template that carries the id reads back to
/// the same id.
inline constexpr std::string_view kOverflowTagName = "#overflow";

/// Interns `name` (case-insensitive; stored lowercased) and returns its id.
/// A well-known name resolves through the immutable table (no lock, no
/// allocation); any other name goes through the process-wide registry,
/// which takes a shared lock, and an exclusive one to add the name.
TagId InternTag(std::string_view name);

/// Returns the id `InternTag(name)` would return, or -1 if interning `name`
/// would add it to the registry. Once the registry is full that is
/// kOverflowTag for any name it does not hold, so an end tag still closes
/// an element whose name overflowed. Lock-free for well-known names, like
/// `InternTag`.
TagId FindTag(std::string_view name);

/// Returns the canonical lowercase name for an id. `id` must be valid. A
/// well-known id reads immutable storage without a lock.
const std::string& TagName(TagId id);

/// Number of distinct tag ids interned so far; once the registry is full,
/// kOverflowTag counts too, so this never exceeds kOverflowTag + 1.
int TagCount();

/// Single fixed-length letter used to spell this tag inside a path string
/// for edit-distance comparison (the paper's "simplify each tag name to a
/// unique identifier of fixed length q" with q == 1 for the first 90 or so
/// tags; rarely-seen tags may share a letter, which only makes the distance
/// slightly pessimistic).
char TagPathSymbol(TagId id);

/// True for void elements (no content, no end tag): br, img, hr, input, ...
bool IsVoidTag(TagId id);

/// True for elements whose content is raw text (no markup): script, style,
/// textarea, title.
bool IsRawTextTag(TagId id);

/// True for tags that belong in <head>: seeing one before <body> opens it.
bool IsHeadOnlyTag(TagId id);

/// True if an open element `open_tag` is implicitly closed when a start tag
/// `incoming` appears (e.g. <li> closes an open <li>; <tr> closes an open
/// <td>). This is the error-recovery core of the tidy-style parser.
bool ClosesOnOpen(TagId open_tag, TagId incoming);

/// True for tags that the parser must not implicitly close when recovering
/// from a mismatched end tag (table cells close at table boundaries, etc.).
bool IsScopeBoundary(TagId id);

/// True for inline formatting elements (b, i, font, span, ...). The
/// candidate filter never roots a region at one, and does not let one make
/// its parent a wrapper.
bool IsInlineTag(TagId id);

}  // namespace thor::html

#endif  // THOR_HTML_TAG_TABLE_H_
