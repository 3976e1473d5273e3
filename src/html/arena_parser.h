#ifndef THOR_HTML_ARENA_PARSER_H_
#define THOR_HTML_ARENA_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/html/tree_read.h"
#include "src/util/status.h"

namespace thor::html {

/// Knobs for the tree builder.
struct ParseOptions {
  /// Hard cap on tree size to bound adversarial inputs; further markup is
  /// dropped (0 = unlimited).
  int max_nodes = 0;
};

/// Damage indicators collected by a checked parse.
struct ParseDiagnostics {
  /// The input ends inside unterminated markup (a tag cut mid-attribute,
  /// an unclosed comment, a quote cut mid-value) — the signature of a
  /// truncated transfer.
  bool truncated_markup = false;
  /// Tag nodes in the resulting tree (root and synthesized head/body
  /// included).
  int tag_nodes = 0;
};

/// True when the input ends inside unterminated markup: the last '<' that
/// plausibly opens a tag/comment has no closing '>' after it. Quote cut
/// mid-attribute-value is a special case of this (the '>' is inside the
/// open string literal or missing entirely).
bool EndsInsideMarkup(std::string_view input);

/// \brief The checked parse's rules, written once for every tree builder.
///
/// `CheckDocument` runs before parsing: an empty or all-whitespace
/// document is a Status::ParseError. `CheckParsedTree` runs on the tree
/// parsed from `input`: it fills `diagnostics` (tag nodes, truncation),
/// then rejects markup that yielded no analyzable structure — the root
/// alone, or root and body with nothing below them. `ParseArenaChecked`
/// applies them to HotParser's tree, and the test oracle's checked parse
/// (tests/oracle/) to its own.
Status CheckDocument(std::string_view input);

template <ReadableTree Tree>
Status CheckParsedTree(std::string_view input, const Tree& tree,
                       ParseDiagnostics* diagnostics) {
  int tag_nodes = 0;
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    if (tree.node(id).is_tag()) ++tag_nodes;
  }
  const bool truncated = EndsInsideMarkup(input);
  if (diagnostics != nullptr) {
    diagnostics->truncated_markup = truncated;
    diagnostics->tag_nodes = tag_nodes;
  }
  if (tree.node_count() <= 1 ||
      (tag_nodes <= 2 && tree.node_count() == tag_nodes)) {
    std::string msg = "document yields no elements";
    if (truncated) msg += " (input truncated inside markup)";
    return Status::ParseError(std::move(msg));
  }
  return Status::OK();
}

/// \brief The error-tolerant HTML tree builder: the one parser learning
/// and serving run.
///
/// Produces the paper's tag-tree model: a rooted tree of tag nodes and
/// content-node leaves. Recovery rules (implied end tags, void elements,
/// head/body synthesis, mismatched end-tag skipping) mirror what the paper
/// obtained by piping pages through HTML Tidy; comments and doctypes are
/// stripped, and the text of <script>/<style> is dropped (their tag nodes
/// stay). Parsing never fails; any byte sequence yields a tree. It runs in
/// one pass with no heap allocation at steady state:
///
/// - the token stream is lexed as string_views over the input; tag names
///   are never copied (tag lookups fold case), and each start tag is
///   looked up once. Well-known names resolve without a lock, so parsers on
///   many threads do not contend;
/// - attributes are scanned for position only (the extraction phases never
///   read them) — no names, values, or entity decoding are materialized;
/// - text runs are entity-decoded and whitespace-collapsed in a single
///   fused pass straight into the tree's arena (raw-text elements skip
///   decoding);
/// - path signatures and tag counts are built during construction by
///   ArenaTree::AddTag, so signature building costs nothing extra.
///
/// The differential harness (tests/hotpath_diff_test.cc) pins this parser
/// node for node against the test oracle's two-phase tokenizer and tree
/// builder (tests/oracle/) over whole drifting deepweb fleets.
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

  // Builder.
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
/// tree.
ArenaTree ParseArena(std::string_view input, const ParseOptions& options = {});

/// \brief ParseArena under the checked-parse rules: the validating front
/// end for hostile input.
///
/// Recovery is best-effort and never crashes, but inputs too damaged to
/// analyze — empty documents, markup that yields no elements at all —
/// return a clean Status::ParseError instead of a degenerate tree. A
/// truncated page that still parses into a usable tree succeeds, with the
/// damage reported through `diagnostics`.
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
/// its entity-decoded value, in node-id order (which is document order).
///
/// Only the start tags that can carry the attribute are lexed, with
/// `Tokenizer`, so names fold to lowercase and values decode. Each
/// case-insensitive occurrence of `name` in the input belongs to the last
/// tag node whose start tag begins before it — or to an `<html>`/`<body>`
/// start tag between that tag and the occurrence, whose attributes belong
/// to the root and the body (`<head>`'s to no node). A node's first such
/// attribute wins; tags past `tree.parsed_bytes()` were never handled and
/// carry nothing. How the simulator's ground-truth markers are read
/// without parsing twice; tests/label_diff_test.cc holds the result to the
/// attributes the test oracle's tree (tests/oracle/) stores.
std::vector<NodeAttribute> FindAttributeValues(std::string_view input,
                                               const ArenaTree& tree,
                                               std::string_view name);

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_PARSER_H_
