#include "src/core/hot_extractor.h"

#include <algorithm>

#include "src/core/signature_builder.h"
#include "src/text/edit_distance.h"

namespace thor::core {

CompiledTemplates CompiledTemplates::Compile(const TemplateRegistry& registry) {
  CompiledTemplates out;
  out.templates_.reserve(registry.templates().size());
  for (const ExtractionTemplate& t : registry.templates()) {
    CompiledTemplate c;
    c.path_symbols = t.path_symbols;
    c.prototype = t.prototype;
    c.support = t.support;
    c.max_distance = t.max_distance;
    c.min_stable_match = t.min_stable_match;
    c.stable = t.stable_tags.entries();
    c.known_ids.reserve(t.known_tags.entries().size());
    for (const ir::VectorEntry& e : t.known_tags.entries()) {
      c.known_ids.push_back(e.id);  // entries are sorted by id
    }
    out.templates_.push_back(std::move(c));
  }
  return out;
}

const html::ArenaTree& HotExtractor::Parse(std::string_view html,
                                           const html::ParseOptions& options) {
  return parser_.Parse(html, options);
}

ir::SparseVector HotExtractor::PageTagCounts() const {
  return TagCountVector(parser_.tree());
}

bool HotExtractor::PassesStableGate(const html::ArenaTree& tree,
                                    const CompiledTemplate& tmpl) const {
  // StableMatchFraction on the fused dense counts. Comparisons are on
  // doubles, exactly like the SparseVector::At path.
  if (tmpl.stable.empty()) return true;  // fraction 1.0 passes any gate <= 1
  int matched = 0;
  for (const ir::VectorEntry& e : tmpl.stable) {
    if (static_cast<double>(tree.TagCountOf(e.id)) == e.weight) ++matched;
  }
  int unknown = 0;
  for (html::TagId tag : tree.distinct_tags()) {
    if (!std::binary_search(tmpl.known_ids.begin(), tmpl.known_ids.end(),
                            static_cast<int32_t>(tag))) {
      ++unknown;
    }
  }
  double fraction =
      static_cast<double>(matched) /
      static_cast<double>(tmpl.stable.size() + static_cast<size_t>(unknown));
  return !(fraction < tmpl.min_stable_match);
}

double HotExtractor::PathTerm(const html::ArenaTree& tree,
                              const CompiledTemplate& tmpl,
                              uint32_t path_id) {
  double& slot = term_memo_[path_id];
  if (slot < 0.0) {
    std::string_view path = tree.path(path_id);
    // Compare the symbol *strings*, not path ids: the 62-symbol alphabet
    // aliases distinct tag chains, and the shape distance treats aliased
    // paths as equal.
    slot = (path == tmpl.prototype.path_symbols)
               ? 0.0
               : text::NormalizedEditDistance(tmpl.prototype.path_symbols,
                                              path);
  }
  return slot;
}

double HotExtractor::Distance(const html::ArenaTree& tree,
                              const CompiledTemplate& tmpl,
                              const HotQuad& quad) {
  return ShapeDistanceWithPathTerm(tmpl.prototype, quad,
                                   PathTerm(tree, tmpl, quad.path_id),
                                   ShapeDistanceWeights{});
}

TemplateRegistry::Located HotExtractor::Locate(
    const html::ArenaTree& tree, const CompiledTemplates& templates) {
  TemplateRegistry::Located located;
  candidates_.clear();
  quads_.clear();
  tree.ForEachInSubtree(tree.root(), [&](html::NodeId id) {
    if (!IsCandidateRoot(tree, id, SubtreeFilterOptions{})) return;
    const html::ArenaNode& n = tree.node(id);
    candidates_.push_back(id);
    quads_.push_back({n.path_id, n.fanout, n.depth, n.subtree_size});
  });
  if (candidates_.empty()) return located;
  const std::vector<CompiledTemplate>& all = templates.templates();
  for (size_t t = 0; t < all.size(); ++t) {
    const CompiledTemplate& tmpl = all[t];
    if (!PassesStableGate(tree, tmpl)) continue;
    // Per-template memos over the page's distinct paths: exact-path flag
    // and prototype path term each computed at most once per path id.
    exact_memo_.assign(tree.path_count(), 2);
    term_memo_.assign(tree.path_count(), -1.0);
    html::NodeId best = html::kInvalidNode;
    double best_distance = tmpl.max_distance;
    // Exact-path candidates first (<= keeps the last tie: a later candidate
    // at the same distance wins).
    for (size_t i = 0; i < quads_.size(); ++i) {
      uint32_t p = quads_[i].path_id;
      uint8_t& exact_flag = exact_memo_[p];
      if (exact_flag == 2) {
        exact_flag = tree.path(p) == tmpl.path_symbols ? 1 : 0;
      }
      if (exact_flag == 0) continue;
      double d = Distance(tree, tmpl, quads_[i]);
      if (d <= best_distance) {
        best_distance = d;
        best = candidates_[i];
      }
    }
    bool exact = best != html::kInvalidNode;
    if (!exact) {
      // Shape fallback over all candidates (< keeps the first minimum).
      for (size_t i = 0; i < quads_.size(); ++i) {
        double d = Distance(tree, tmpl, quads_[i]);
        if (d < best_distance) {
          best_distance = d;
          best = candidates_[i];
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

HotExtractor::Result HotExtractor::Extract(std::string_view html,
                                           const CompiledTemplates& templates) {
  Result result;
  const html::ArenaTree& tree = parser_.Parse(html);
  result.located = Locate(tree, templates);
  if (result.located.node == html::kInvalidNode) return result;
  result.hit = true;
  result.pagelet_path = tree.PathString(result.located.node);
  PartitionInto(tree, result.located.node, {}, ObjectPartitionOptions{},
                &objects_);
  result.objects.resize(objects_.size());
  for (size_t k = 0; k < objects_.size(); ++k) {
    AppendObjectText(tree, objects_.object(k), &result.objects[k]);
  }
  return result;
}

}  // namespace thor::core
