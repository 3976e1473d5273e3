#include "tests/oracle/reference_locate.h"

#include <vector>

#include "src/core/common_subtrees.h"
#include "src/core/signature_builder.h"
#include "src/core/subtree_filter.h"
#include "src/ir/sparse_vector.h"
#include "tests/oracle/tag_tree.h"

namespace thor::core {
namespace {

// Fraction of the template's stable tags whose count the page reproduces
// exactly, with every page tag outside `known_tags` counted against it.
double StableMatchFraction(const ir::SparseVector& stable_tags,
                           const ir::SparseVector& known_tags,
                           const ir::SparseVector& page_counts) {
  if (stable_tags.empty()) return 1.0;
  int matched = 0;
  for (const ir::VectorEntry& e : stable_tags.entries()) {
    if (page_counts.At(e.id) == e.weight) ++matched;
  }
  int unknown = 0;
  for (const ir::VectorEntry& e : page_counts.entries()) {
    if (known_tags.At(e.id) == 0.0) ++unknown;
  }
  return static_cast<double>(matched) /
         static_cast<double>(stable_tags.size() + unknown);
}

}  // namespace

template <html::ReadableTree Tree>
TemplateRegistry::Located LocateDetailed(const TemplateRegistry& registry,
                                         const Tree& tree) {
  TemplateRegistry::Located located;
  std::vector<html::NodeId> candidates = CandidateSubtrees(tree);
  if (candidates.empty()) return located;
  ir::SparseVector page_tag_counts = TagCountVector(tree);
  std::vector<ShapeQuad> quads;
  quads.reserve(candidates.size());
  for (html::NodeId node : candidates) {
    quads.push_back(MakeShapeQuad(tree, node));
  }
  const std::vector<ExtractionTemplate>& templates = registry.templates();
  for (size_t t = 0; t < templates.size(); ++t) {
    const ExtractionTemplate& tmpl = templates[t];
    // Page-level gate first: does this page reproduce the answer class's
    // structural skeleton?
    if (StableMatchFraction(tmpl.stable_tags, tmpl.known_tags,
                            page_tag_counts) < tmpl.min_stable_match) {
      continue;
    }
    html::NodeId best = html::kInvalidNode;
    double best_distance = tmpl.max_distance;
    // Exact-path candidates first; they tolerate any shape drift within
    // the budget, because template pages keep their paths.
    for (size_t i = 0; i < quads.size(); ++i) {
      if (quads[i].path_symbols != tmpl.path_symbols) continue;
      double d = ShapeDistance(tmpl.prototype, quads[i]);
      if (d <= best_distance) {
        best_distance = d;
        best = candidates[i];
      }
    }
    bool exact = best != html::kInvalidNode;
    if (!exact) {
      // Fall back to nearest shape (site tweaked a wrapper level).
      for (size_t i = 0; i < quads.size(); ++i) {
        double d = ShapeDistance(tmpl.prototype, quads[i]);
        if (d < best_distance) {
          best_distance = d;
          best = candidates[i];
        }
      }
    }
    if (best != html::kInvalidNode) {
      located.node = best;
      located.distance = best_distance;
      located.budget = tmpl.max_distance;
      located.template_index = static_cast<int>(t);
      located.exact_path = exact;
      return located;
    }
  }
  return located;
}

template TemplateRegistry::Located LocateDetailed(
    const TemplateRegistry& registry, const html::TagTree& tree);

}  // namespace thor::core
