#ifndef THOR_HTML_PARSER_H_
#define THOR_HTML_PARSER_H_

#include <string>
#include <string_view>

#include "src/html/tag_tree.h"
#include "src/html/tree_read.h"
#include "src/util/status.h"

namespace thor::html {

/// Knobs for the tree builder.
struct ParseOptions {
  /// Keep the raw text of <script>/<style> as content nodes. Off by
  /// default: the paper's content signatures measure visible terms, and
  /// scripts/styles would pollute them.
  bool keep_script_text = false;
  /// Hard cap on tree size to bound adversarial inputs; further markup is
  /// dropped (0 = unlimited).
  int max_nodes = 0;
};

/// \brief Error-tolerant HTML tree builder.
///
/// Produces the paper's tag-tree model: a rooted tree of tag nodes and
/// content-node leaves. Recovery rules (implied end tags, void elements,
/// head/body synthesis, mismatched end-tag skipping) mirror what the paper
/// obtained by piping pages through HTML Tidy. Parsing never fails; any
/// byte sequence yields a tree.
TagTree ParseHtml(std::string_view input, const ParseOptions& options = {});

/// Damage indicators collected by ParseHtmlChecked.
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

/// \brief The checked parse's rules, written once for both parsers.
///
/// `CheckDocument` runs before parsing: an empty or all-whitespace
/// document is a Status::ParseError. `CheckParsedTree` runs on the tree
/// parsed from `input`: it fills `diagnostics` (tag nodes, truncation),
/// then rejects markup that yielded no analyzable structure — the root
/// alone, or root and body with nothing below them.
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

/// \brief Validating front end for hostile input, on the legacy parser.
///
/// Like ParseHtml, recovery is best-effort and never crashes; unlike
/// ParseHtml, inputs too damaged to analyze — empty documents, markup that
/// yields no elements at all — return a clean Status::ParseError instead
/// of a degenerate tree. A truncated page that still parses into a usable
/// tree succeeds, with the damage reported through `diagnostics`.
/// `ParseArenaChecked` applies the same rules to HotParser's tree.
Result<TagTree> ParseHtmlChecked(std::string_view input,
                                 const ParseOptions& options = {},
                                 ParseDiagnostics* diagnostics = nullptr);

}  // namespace thor::html

#endif  // THOR_HTML_PARSER_H_
