#ifndef THOR_CORE_TEMPLATE_REGISTRY_H_
#define THOR_CORE_TEMPLATE_REGISTRY_H_

#include <string>
#include <vector>

#include "src/core/common_subtrees.h"
#include "src/core/thor.h"
#include "src/ir/sparse_vector.h"

namespace thor::core {

/// \brief A learned per-site extraction template: where this site's
/// QA-Pagelet lives, described structurally (never by URL or pixel
/// position).
///
/// The paper's motivating deep-web search engine cannot afford the full
/// two-phase analysis on every page it fetches; THOR runs once per site on
/// a probed sample, and the learned template then locates the QA-Pagelet
/// on any further page from the same site in a single pass.
struct ExtractionTemplate {
  /// Path symbols (one per tag, root first) of the pagelet region.
  std::string path_symbols;
  /// Representative shape of the region on the sample pages.
  ShapeQuad prototype;
  /// How many sample pages supported this template.
  int support = 0;
  /// Largest shape distance accepted when locating the region.
  double max_distance = 0.4;
  /// Page-level gate: the (tag, count) pairs that are identical on every
  /// supporting page — the page skeleton (header, nav, footer, headings).
  /// Answer pages of any result count reproduce the skeleton exactly; a
  /// no-match page perturbs several entries (extra suggestion paragraphs,
  /// the popular-items list, a missing pager), which is what rejects pages
  /// whose "popular items" block is structurally identical to a results
  /// list.
  ir::SparseVector stable_tags;
  /// Every tag that occurs on any supporting page. A fresh page carrying a
  /// tag outside this set (e.g. the <h3> of a "no matches" suggestion
  /// block) is penalized as a skeleton mismatch.
  ir::SparseVector known_tags;
  /// Minimum fraction of `stable_tags` a fresh page must reproduce (with
  /// unknown tags counted against it).
  double min_stable_match = 0.93;
};

/// \brief Registry of learned templates for one site.
///
/// Holds the templates; `core::HotExtractor` locates with them, after
/// `CompiledTemplates::Compile` lowers them for the serving loop.
class TemplateRegistry {
 public:
  /// Learns one template per passed page cluster from a completed THOR run
  /// (one template per answer-page type: multi-match, single-match, ...).
  /// Templates are ordered by support, strongest first.
  static TemplateRegistry Learn(const std::vector<Page>& pages,
                                const ThorResult& result);

  /// Builds a registry directly from template records, preserving order.
  /// Used by the THORTPL1 codec (serve/template_codec.h); Learn remains
  /// the only path that derives templates from pages.
  static TemplateRegistry FromTemplates(
      std::vector<ExtractionTemplate> templates);

  const std::vector<ExtractionTemplate>& templates() const {
    return templates_;
  }
  bool empty() const { return templates_.empty(); }

  /// Everything `HotExtractor::Locate` knows about how well the winning
  /// template fit — what the serving layer turns into a per-response
  /// confidence.
  struct Located {
    html::NodeId node = html::kInvalidNode;
    /// Shape distance between the winning candidate and the winning
    /// template's prototype (0 when node is kInvalidNode).
    double distance = 0.0;
    /// That template's max_distance budget.
    double budget = 0.0;
    /// Index into templates() of the winning template, -1 on a miss.
    int template_index = -1;
    /// The winner kept the exact learned path (vs the shape fallback).
    bool exact_path = false;

    /// How comfortably the match landed inside the budget, in [0, 1];
    /// 0 on a miss. Exact-path matches are floored at 0.5: the path
    /// surviving verbatim is strong evidence even when the shape drifted.
    double Confidence() const;
  };

 private:
  std::vector<ExtractionTemplate> templates_;
};

}  // namespace thor::core

#endif  // THOR_CORE_TEMPLATE_REGISTRY_H_
