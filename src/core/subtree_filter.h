#ifndef THOR_CORE_SUBTREE_FILTER_H_
#define THOR_CORE_SUBTREE_FILTER_H_

#include <vector>

#include "src/html/tree_read.h"

namespace thor::core {

/// Single-page analysis knobs (paper Section 3.2.1).
struct SubtreeFilterOptions {
  /// Minimum bytes of content text a candidate subtree must contain
  /// (rule 1: "remove all subtrees that contain no content").
  int min_content_length = 1;
  /// Minimum nodes in a candidate subtree.
  int min_subtree_nodes = 2;
  /// Rule 2 (minimality): a subtree is a non-minimal wrapper — and is
  /// dropped — when a single tag child holds at least this fraction of its
  /// content. 1.0 recovers the strict "equivalent content" reading; the
  /// default 0.8 also prunes wrappers that add only a heading or an ad
  /// around the real region.
  double wrapper_content_fraction = 0.8;
  /// Rule 3 (see DESIGN.md interpretation note): a candidate's root must
  /// branch (fanout >= 2) or own a direct content child; together with the
  /// minimality rule this pushes candidates to the smallest
  /// content-complete subtrees.
  bool require_branching = true;
  /// Skip subtrees rooted at inline formatting elements (b, i, span, ...):
  /// a QA-Pagelet region is a block construct.
  bool skip_inline_roots = true;
};

/// \brief Phase-II single-page analysis for one node: true if the subtree
/// rooted at `id` is a candidate QA-Pagelet region.
///
/// Implements the paper's three filtering rules: drop content-free
/// subtrees, drop non-minimal subtrees whose entire content lives in a
/// single child (the child is the better candidate), and require local
/// branching at the root. The page root itself is never a candidate.
/// Written once over `html::ReadableTree`: learning and serving read the
/// ArenaTree, the differential tests also the legacy TagTree.
template <html::ReadableTree Tree>
bool IsCandidateRoot(const Tree& tree, html::NodeId id,
                     const SubtreeFilterOptions& options) {
  if (id == tree.root()) return false;  // never the whole page
  const auto& n = tree.node(id);
  if (!n.is_tag()) return false;
  if (n.tag == html::Tag::kHead || n.tag == html::Tag::kBody) return false;
  if (options.skip_inline_roots && html::IsInlineTag(n.tag)) return false;
  // Rule 1: must contain content.
  if (n.content_length < options.min_content_length) return false;
  if (n.subtree_size < options.min_subtree_nodes) return false;
  // Rule 2 (minimality): if one child subtree holds (nearly) all of this
  // node's content, this node is an equivalent-but-larger wrapper — the
  // child is the better candidate, so skip this node.
  // Inline children (<a>, <b>, <font>, ...) do not make their parent a
  // wrapper: the minimal *block* subtree is the right candidate, and
  // inline elements are themselves skipped as candidate roots.
  const double threshold =
      options.wrapper_content_fraction * n.content_length;
  for (html::NodeId child : tree.Children(id)) {
    const auto& c = tree.node(child);
    if (c.is_tag() && !html::IsInlineTag(c.tag) &&
        c.content_length >= threshold) {
      return false;
    }
  }
  // Rule 3: require local branching or direct content. Inline children
  // are transparent here: a <dt> whose text lives inside an <a> still
  // "owns" that content, because inline elements are never candidates
  // themselves.
  if (!options.require_branching || tree.Fanout(id) >= 2) return true;
  for (html::NodeId child : tree.Children(id)) {
    const auto& c = tree.node(child);
    if (!c.is_tag() || (html::IsInlineTag(c.tag) && c.content_length > 0)) {
      return true;
    }
  }
  return false;
}

/// The candidate subtrees of one page (`IsCandidateRoot`), in document
/// order.
template <html::ReadableTree Tree>
std::vector<html::NodeId> CandidateSubtrees(
    const Tree& tree, const SubtreeFilterOptions& options = {}) {
  std::vector<html::NodeId> candidates;
  tree.ForEachInSubtree(tree.root(), [&](html::NodeId id) {
    if (IsCandidateRoot(tree, id, options)) candidates.push_back(id);
  });
  return candidates;
}

}  // namespace thor::core

#endif  // THOR_CORE_SUBTREE_FILTER_H_
