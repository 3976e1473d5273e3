#include "src/core/template_registry.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/core/signature_builder.h"
#include "src/ir/similarity.h"

namespace thor::core {

namespace {

// Fraction of the template's stable tags whose count the page reproduces
// exactly.
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

TemplateRegistry TemplateRegistry::Learn(const std::vector<Page>& pages,
                                         const ThorResult& result) {
  TemplateRegistry registry;
  // Group extracted pagelets by path symbols: one answer-page type may be
  // split across refined clusters that share a template.
  struct Group {
    std::vector<ShapeQuad> quads;
    std::vector<ir::SparseVector> page_tag_counts;
  };
  std::map<std::string, Group> groups;
  for (const ThorPageResult& page_result : result.pages) {
    if (page_result.pagelet == html::kInvalidNode) continue;
    const html::ArenaTree& tree =
        pages[static_cast<size_t>(page_result.page_index)].tree;
    ShapeQuad quad = MakeShapeQuad(tree, page_result.pagelet);
    Group& group = groups[quad.path_symbols];
    group.quads.push_back(std::move(quad));
    group.page_tag_counts.push_back(TagCountVector(tree));
  }
  for (auto& [path, group] : groups) {
    ExtractionTemplate tmpl;
    tmpl.path_symbols = path;
    tmpl.support = static_cast<int>(group.quads.size());
    // Median-size member as the prototype shape: robust to the odd
    // truncated or overstuffed page.
    std::sort(group.quads.begin(), group.quads.end(),
              [](const ShapeQuad& a, const ShapeQuad& b) {
                return a.num_nodes < b.num_nodes;
              });
    tmpl.prototype = group.quads[group.quads.size() / 2];
    // Distance budget learned from the sample's own spread around the
    // prototype (plus slack), so a tight template stays tight and a
    // variable-length listing stays permissive.
    double spread = 0.0;
    for (const ShapeQuad& quad : group.quads) {
      spread = std::max(spread, ShapeDistance(tmpl.prototype, quad));
    }
    tmpl.max_distance = std::clamp(spread + 0.05, 0.15, 0.45);
    // A listing region (variable fanout across supporters) grows with the
    // answer count; a probe sample rarely contains the longest possible
    // list, so keep the budget permissive for lists.
    if (group.quads.front().fanout != group.quads.back().fanout) {
      tmpl.max_distance = std::max(tmpl.max_distance, 0.4);
    }
    // Page-level gate: the tags whose count is identical on every
    // supporting page (the skeleton: header, nav, footer, headings). An
    // answer page of any length reproduces them exactly; a no-match page
    // perturbs several (extra suggestion paragraphs, the popular-items
    // list, a missing pager).
    std::vector<ir::VectorEntry> stable;
    for (const ir::VectorEntry& e :
         group.page_tag_counts.front().entries()) {
      bool constant = true;
      for (const ir::SparseVector& counts : group.page_tag_counts) {
        if (counts.At(e.id) != e.weight) {
          constant = false;
          break;
        }
      }
      if (constant) stable.push_back(e);
    }
    tmpl.stable_tags = ir::SparseVector::FromPairs(std::move(stable));
    std::vector<ir::VectorEntry> known;
    for (const ir::SparseVector& counts : group.page_tag_counts) {
      for (const ir::VectorEntry& e : counts.entries()) {
        known.push_back({e.id, 1.0});
      }
    }
    tmpl.known_tags = ir::SparseVector::FromPairs(std::move(known));
    registry.templates_.push_back(std::move(tmpl));
  }
  std::sort(registry.templates_.begin(), registry.templates_.end(),
            [](const ExtractionTemplate& a, const ExtractionTemplate& b) {
              return a.support > b.support;
            });
  return registry;
}

TemplateRegistry TemplateRegistry::FromTemplates(
    std::vector<ExtractionTemplate> templates) {
  TemplateRegistry registry;
  registry.templates_ = std::move(templates);
  return registry;
}

double TemplateRegistry::Located::Confidence() const {
  if (node == html::kInvalidNode) return 0.0;
  double slack =
      budget > 0.0 ? std::clamp(1.0 - distance / budget, 0.0, 1.0) : 1.0;
  return exact_path ? std::max(slack, 0.5) : slack;
}

template <html::ReadableTree Tree>
TemplateRegistry::Located TemplateRegistry::LocateDetailed(
    const Tree& tree, const TemplateApplyOptions& options) const {
  Located located;
  std::vector<html::NodeId> candidates =
      CandidateSubtrees(tree, options.filter);
  if (candidates.empty()) return located;
  ir::SparseVector page_tag_counts = TagCountVector(tree);
  std::vector<ShapeQuad> quads;
  quads.reserve(candidates.size());
  for (html::NodeId node : candidates) {
    quads.push_back(MakeShapeQuad(tree, node));
  }
  for (size_t t = 0; t < templates_.size(); ++t) {
    const ExtractionTemplate& tmpl = templates_[t];
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
      double d = ShapeDistance(tmpl.prototype, quads[i], options.weights);
      if (d <= best_distance) {
        best_distance = d;
        best = candidates[i];
      }
    }
    bool exact = best != html::kInvalidNode;
    if (!exact) {
      // Fall back to nearest shape (site tweaked a wrapper level).
      for (size_t i = 0; i < quads.size(); ++i) {
        double d = ShapeDistance(tmpl.prototype, quads[i], options.weights);
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

template TemplateRegistry::Located TemplateRegistry::LocateDetailed(
    const html::ArenaTree& tree, const TemplateApplyOptions& options) const;
template TemplateRegistry::Located TemplateRegistry::LocateDetailed(
    const html::TagTree& tree, const TemplateApplyOptions& options) const;

}  // namespace thor::core
