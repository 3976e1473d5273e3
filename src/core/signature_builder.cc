#include "src/core/signature_builder.h"

namespace thor::core {

ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 html::NodeId root, ir::Vocabulary* vocab,
                                 const text::TermOptions& options) {
  std::unordered_map<int32_t, int> counts;
  tree.ForEachInSubtree(root, [&](html::NodeId id) {
    const html::ArenaNode& n = tree.node(id);
    if (n.is_tag()) return;
    for (const std::string& term : text::ExtractTerms(n.text(), options)) {
      ++counts[vocab->Intern(term)];
    }
  });
  return ir::SparseVector::FromCounts(counts);
}

ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 ir::Vocabulary* vocab,
                                 const text::TermOptions& options) {
  return TermCountVector(tree, tree.root(), vocab, options);
}

int DistinctTermCount(const html::ArenaTree& tree) {
  return text::CountDistinctTerms(tree.SubtreeText(tree.root()));
}

int DistinctTagCount(const html::ArenaTree& tree) {
  return static_cast<int>(tree.distinct_tags().size());
}

}  // namespace thor::core
