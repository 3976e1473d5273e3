#include "src/core/pagelet_selection.h"

#include <algorithm>
#include <unordered_map>

namespace thor::core {

namespace {

// All dynamic subtree roots per page, across the given sets.
std::unordered_map<int, std::vector<html::NodeId>> DynamicRootsByPage(
    const std::vector<RankedSubtreeSet>& ranked_sets, double threshold) {
  std::unordered_map<int, std::vector<html::NodeId>> by_page;
  for (const RankedSubtreeSet& rs : ranked_sets) {
    if (!rs.IsDynamic(threshold)) continue;
    for (const SubtreeRef& ref : rs.set.members) {
      by_page[ref.page_index].push_back(ref.node);
    }
  }
  return by_page;
}

// The innermost dynamic nodes of one page: dynamic roots containing no
// other dynamic root. These approximate the raw query answers.
std::vector<html::NodeId> InnermostDynamic(
    const html::ArenaTree& tree, const std::vector<html::NodeId>& roots) {
  std::vector<html::NodeId> innermost;
  for (html::NodeId a : roots) {
    bool contains_other = false;
    for (html::NodeId b : roots) {
      if (a != b && tree.IsAncestorOrSelf(a, b)) {
        contains_other = true;
        break;
      }
    }
    if (!contains_other) innermost.push_back(a);
  }
  return innermost;
}

}  // namespace

std::vector<ExtractedPagelet> SelectPagelets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<RankedSubtreeSet>& ranked_sets,
    const PageletSelectionOptions& options) {
  std::vector<ExtractedPagelet> out;
  if (trees.empty()) return out;
  auto dynamic_by_page =
      DynamicRootsByPage(ranked_sets, options.similarity_threshold);

  // Innermost dynamic regions and their byte mass, per page.
  std::unordered_map<int, std::vector<html::NodeId>> innermost_by_page;
  std::unordered_map<int, double> dynamic_mass_by_page;
  for (const auto& [page, roots] : dynamic_by_page) {
    auto innermost =
        InnermostDynamic(*trees[static_cast<size_t>(page)], roots);
    double mass = 0.0;
    for (html::NodeId node : innermost) {
      mass += trees[static_cast<size_t>(page)]->node(node).content_length;
    }
    innermost_by_page[page] = std::move(innermost);
    dynamic_mass_by_page[page] = mass;
  }

  // Score each dynamic set by average coverage of innermost dynamic
  // content and average depth.
  struct Scored {
    const RankedSubtreeSet* set;
    double coverage = 0.0;
    double depth = 0.0;
  };
  std::vector<Scored> qualifying;
  for (const RankedSubtreeSet& rs : ranked_sets) {
    if (!rs.IsDynamic(options.similarity_threshold)) continue;
    Scored s;
    s.set = &rs;
    int usable = 0;
    for (const SubtreeRef& ref : rs.set.members) {
      const html::ArenaTree& tree =
          *trees[static_cast<size_t>(ref.page_index)];
      double fraction = static_cast<double>(tree.SubtreeSize(ref.node)) /
                        tree.node(tree.root()).subtree_size;
      if (fraction > options.max_page_fraction) continue;  // page-sized
      ++usable;
      s.depth += tree.Depth(ref.node);
      double mass = dynamic_mass_by_page[ref.page_index];
      if (mass <= 0.0) continue;
      double covered = 0.0;
      for (html::NodeId node : innermost_by_page[ref.page_index]) {
        if (tree.IsAncestorOrSelf(ref.node, node)) {
          covered += tree.node(node).content_length;
        }
      }
      s.coverage += covered / mass;
    }
    if (usable == 0) continue;
    s.coverage /= usable;
    s.depth /= usable;
    if (s.coverage >= options.min_dynamic_coverage) {
      qualifying.push_back(s);
    }
  }
  if (qualifying.empty()) return out;

  // Deepest qualifying set first; coverage then similarity break ties.
  std::sort(qualifying.begin(), qualifying.end(),
            [](const Scored& a, const Scored& b) {
              if (a.depth != b.depth) return a.depth > b.depth;
              if (a.coverage != b.coverage) return a.coverage > b.coverage;
              return a.set->intra_similarity < b.set->intra_similarity;
            });

  int sets_to_take = std::max(1, options.max_pagelets_per_page);
  for (int rank = 0;
       rank < sets_to_take && rank < static_cast<int>(qualifying.size());
       ++rank) {
    const Scored& winner = qualifying[static_cast<size_t>(rank)];
    for (const SubtreeRef& ref : winner.set->set.members) {
      const html::ArenaTree& tree =
          *trees[static_cast<size_t>(ref.page_index)];
      double fraction = static_cast<double>(tree.SubtreeSize(ref.node)) /
                        tree.node(tree.root()).subtree_size;
      if (fraction > options.max_page_fraction) continue;
      ExtractedPagelet pagelet;
      pagelet.page_index = ref.page_index;
      pagelet.node = ref.node;
      pagelet.score = winner.coverage;
      pagelet.set_similarity = winner.set->intra_similarity;
      auto it = dynamic_by_page.find(ref.page_index);
      if (it != dynamic_by_page.end()) {
        for (html::NodeId other : it->second) {
          if (other != ref.node &&
              tree.IsAncestorOrSelf(pagelet.node, other)) {
            pagelet.dynamic_descendants.push_back(other);
          }
        }
      }
      out.push_back(std::move(pagelet));
    }
  }
  return out;
}

}  // namespace thor::core
