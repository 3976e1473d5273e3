#ifndef THOR_CORE_SIGNATURE_BUILDER_H_
#define THOR_CORE_SIGNATURE_BUILDER_H_

#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/html/tree_read.h"
#include "src/ir/sparse_vector.h"
#include "src/ir/vocabulary.h"
#include "src/text/term_tokenizer.h"

namespace thor::core {

/// Tag counts of the subtree rooted at `root`: one dimension per distinct
/// tag, weighted by its occurrence count. Dimension ids are process-wide
/// html TagIds, so vectors from different pages align.
template <html::ReadableTree Tree>
ir::SparseVector TagCountVector(const Tree& tree, html::NodeId root) {
  std::unordered_map<int32_t, int> counts;
  tree.ForEachInSubtree(root, [&](html::NodeId id) {
    if (tree.node(id).is_tag()) ++counts[tree.node(id).tag];
  });
  return ir::SparseVector::FromCounts(counts);
}

/// Raw tag-tree signature (paper Section 3.1.2): the whole page's tag
/// counts. An ArenaTree counted its tags while it was built, so its
/// signature reads those counts; the walk above serves the legacy tree.
/// Both give the same vector to the bit.
template <html::ReadableTree Tree>
ir::SparseVector TagCountVector(const Tree& tree) {
  if constexpr (std::is_same_v<Tree, html::ArenaTree>) {
    std::vector<ir::VectorEntry> entries;
    entries.reserve(tree.distinct_tags().size());
    for (html::TagId tag : tree.distinct_tags()) {
      entries.push_back({tag, static_cast<double>(tree.TagCountOf(tag))});
    }
    // FromPairs sorts by id and computes the norm over the sorted entries,
    // exactly as the FromCounts path does.
    return ir::SparseVector::FromPairs(std::move(entries));
  } else {
    return TagCountVector(tree, tree.root());
  }
}

/// Raw content signature: one dimension per distinct (stemmed) content
/// term in the subtree at `root`, weighted by occurrence count. Terms are
/// interned into `*vocab` so vectors from the same collection align.
ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 html::NodeId root, ir::Vocabulary* vocab,
                                 const text::TermOptions& options = {});

/// Whole-page content signature.
ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 ir::Vocabulary* vocab,
                                 const text::TermOptions& options = {});

/// Number of distinct content terms on the page (cluster-ranking feature;
/// also the paper's "22.3 distinct tags vs 184.0 distinct terms" corpus
/// statistic).
int DistinctTermCount(const html::ArenaTree& tree);

/// Number of distinct tags on the page.
int DistinctTagCount(const html::ArenaTree& tree);

}  // namespace thor::core

#endif  // THOR_CORE_SIGNATURE_BUILDER_H_
