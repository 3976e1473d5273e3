#include "src/core/subtree_filter.h"

namespace thor::core {

std::vector<html::NodeId> CandidateSubtrees(
    const html::TagTree& tree, const SubtreeFilterOptions& options) {
  std::vector<html::NodeId> candidates;
  tree.ForEachInSubtree(tree.root(), [&](html::NodeId id) {
    if (IsCandidateRoot(tree, id, options)) candidates.push_back(id);
  });
  return candidates;
}

}  // namespace thor::core
