#ifndef THOR_CORE_PAGELET_SELECTION_H_
#define THOR_CORE_PAGELET_SELECTION_H_

#include <vector>

#include "src/core/subtree_ranking.h"

namespace thor::core {

/// QA-Pagelet selection knobs (paper Section 3.2.2).
struct PageletSelectionOptions {
  /// Sets above this intra-similarity are static and never selected.
  double similarity_threshold = 0.5;
  /// Guideline 1 ("contain many other dynamically-generated content
  /// subtrees"), made byte-precise: a set qualifies when its members
  /// contain at least this fraction of their page's innermost dynamic
  /// content. The winner is then the *deepest* qualifying set
  /// (guideline 2: prefer deep subtrees, discourage page-sized ones).
  double min_dynamic_coverage = 0.5;
  /// A subtree spanning more than this fraction of the page's nodes is
  /// considered "overly large and broad" and skipped.
  double max_page_fraction = 0.75;
  /// How many pagelets to select per page (the paper notes some sites have
  /// multiple primary content regions).
  int max_pagelets_per_page = 1;
};

/// One extracted QA-Pagelet with its annotation of contained dynamic
/// subtrees (the QA-Object recommendations passed to Stage 3).
struct ExtractedPagelet {
  int page_index = 0;
  html::NodeId node = html::kInvalidNode;
  /// Average dynamic-content coverage of the winning set.
  double score = 0.0;
  /// Intra-set similarity of the winning common subtree set.
  double set_similarity = 0.0;
  /// Roots of other dynamic subtrees contained in this pagelet (same page).
  std::vector<html::NodeId> dynamic_descendants;
};

/// \brief Final Phase-II step: picks the minimal subtrees holding the
/// QA-Pagelets from the ranked common subtree sets.
///
/// The innermost dynamic regions (dynamic-set members containing no other
/// dynamic member) approximate the query answers themselves; the selected
/// pagelet is the deepest dynamic set whose members still cover most of
/// that content — i.e. the smallest subtree that contains the answers,
/// not a page-level wrapper that additionally swallows rotating ads and
/// echoed-query headings.
std::vector<ExtractedPagelet> SelectPagelets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<RankedSubtreeSet>& ranked_sets,
    const PageletSelectionOptions& options = {});

}  // namespace thor::core

#endif  // THOR_CORE_PAGELET_SELECTION_H_
