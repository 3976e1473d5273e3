#ifndef THOR_HTML_ARENA_PARSER_H_
#define THOR_HTML_ARENA_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/html/parser.h"
#include "src/util/status.h"

namespace thor::html {

/// \brief Fused tokenizer + tree builder for the extraction hot path.
///
/// Produces an ArenaTree semantically identical to
/// `ParseHtml(input, options)` — same node ids, same recovery rules, same
/// collapsed/entity-decoded content text — but in one pass with no heap
/// allocation at steady state:
///
/// - the token stream is lexed as string_views over the input; tag names
///   are never copied (tag lookups fold case), and each start tag is
///   looked up once. Well-known names resolve without a lock, so parsers on
///   many threads do not contend;
/// - attributes are scanned for position only (the extraction phases never
///   read them) — no names, values, or entity decoding are materialized;
/// - text runs are entity-decoded and whitespace-collapsed in a single
///   fused pass straight into the tree's arena (raw-text elements skip
///   decoding, exactly like the legacy two-phase pipeline);
/// - path signatures and tag counts are built during construction by
///   ArenaTree::AddTag, so signature building costs nothing extra.
///
/// The differential harness (tests/hotpath_diff_test.cc) pins this parser
/// byte-for-byte against ParseHtml over whole drifting deepweb fleets.
///
/// Each tag node records its start tag's byte offset (`ArenaNode::
/// tag_offset`), so the attributes it skips can be read back from the
/// input for the few tags that need them (`FindAttributeValues`).
///
/// Reusable: each Parse resets and refills the embedded tree. Not
/// thread-safe; use one HotParser per worker thread.
class HotParser {
 public:
  /// Parses `input`; the returned tree is owned by this parser and valid
  /// until the next Parse call.
  const ArenaTree& Parse(std::string_view input,
                         const ParseOptions& options = {});

  const ArenaTree& tree() const { return tree_; }

 private:
  struct LexedToken {
    enum class Kind : uint8_t {
      kStartTag,
      kEndTag,
      kText,     // raw substring, entity decoding pending
      kRawText,  // raw-text element payload: collapse only, never decoded
      kSkip,     // comment / doctype / bogus comment (position-only)
    };
    Kind kind = Kind::kSkip;
    std::string_view name;  // start/end tag name, original casing
    TagId tag = -1;         // start tag: FindTag(name), -1 if not yet known
    std::string_view text;
    bool self_closing = false;
  };

  // Lexer (mirrors Tokenizer byte-for-byte on position advancement).
  bool NextToken(LexedToken* token);
  bool LexMarkup(LexedToken* token);
  void LexBogusComment();
  void LexEndTag(LexedToken* token);
  void LexStartTag(LexedToken* token);
  void SkipAttributes(LexedToken* token);
  void EnterRawText(std::string_view tag_name);

  // Builder (mirrors parser.cc's TreeBuilder).
  void HandleStartTag(const LexedToken& token);
  void HandleEndTag(std::string_view name);
  void HandleText(std::string_view raw, bool is_raw_text);
  NodeId Top() const { return stack_.back(); }
  TagId TopTag() const { return tree_.node(Top()).tag; }
  bool AtRootLevel() const { return stack_.size() == 1; }
  void EnsureHead();
  void EnsureBody();
  void PopOne();

  ArenaTree tree_;
  std::vector<NodeId> stack_;
  ParseOptions options_;
  NodeId head_ = kInvalidNode;
  NodeId body_ = kInvalidNode;
  NodeId last_raw_text_node_ = kInvalidNode;

  std::string_view input_;
  size_t pos_ = 0;
  std::string_view pending_raw_text_;
  bool has_pending_raw_text_ = false;
};

/// Parses `input` with this thread's HotParser and returns the tree as an
/// owned, packed copy (see ArenaTree): how learning builds each page's
/// tree. Node for node what `ParseHtml(input, options)` builds.
ArenaTree ParseArena(std::string_view input, const ParseOptions& options = {});

/// ParseArena under the checked-parse rules: ParseHtmlChecked's
/// rejections, messages and diagnostics, on the arena tree.
Result<ArenaTree> ParseArenaChecked(std::string_view input,
                                    const ParseOptions& options = {},
                                    ParseDiagnostics* diagnostics = nullptr);

/// One tag node's value of an attribute.
struct NodeAttribute {
  NodeId node = kInvalidNode;
  std::string value;
};

/// \brief Reads attribute `name` (lowercase) back from `input`, the bytes
/// `tree` was parsed from: every tag node whose start tags carry it, with
/// the value `TagTree::AttributeValue` reports on `ParseHtml(input)`'s
/// tree, in node-id order (which is document order).
///
/// Only the start tags that can carry the attribute are lexed, with the
/// legacy `Tokenizer`, so names fold and values decode exactly as
/// ParseHtml's do. Each case-insensitive occurrence of `name` in the input
/// belongs to the last tag node whose start tag begins before it — or to
/// an `<html>`/`<body>` start tag between that tag and the occurrence,
/// whose attributes the legacy builder merges into the root and the body
/// (`<head>`'s it drops). A node's first such attribute wins; tags past
/// `tree.parsed_bytes()` were never handled and carry nothing. How the
/// simulator's ground-truth markers are read without parsing twice.
std::vector<NodeAttribute> FindAttributeValues(std::string_view input,
                                               const ArenaTree& tree,
                                               std::string_view name);

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_PARSER_H_
