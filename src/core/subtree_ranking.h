#ifndef THOR_CORE_SUBTREE_RANKING_H_
#define THOR_CORE_SUBTREE_RANKING_H_

#include <vector>

#include "src/core/common_subtrees.h"
#include "src/core/page_terms.h"

namespace thor::core {

/// Cross-page analysis step-2 knobs (paper Section 3.2.1 Step 2).
struct SubtreeRankOptions {
  /// Use the paper's TFIDF weighting of subtree content vectors. Turning
  /// this off reproduces the degenerate left histogram of Figure 9.
  bool use_tfidf = true;
  /// Sets whose intra-set similarity exceeds this are considered static
  /// content and pruned from QA-Pagelet consideration ("not very
  /// important" exact value — 0.5 in the paper's first prototype).
  double prune_threshold = 0.5;
  /// Threads for scoring sets concurrently (0 = process default,
  /// 1 = serial). Each set numbers its own terms and fits its own TFIDF
  /// model, so sets are independent and the ranking is identical at every
  /// count.
  int threads = 0;
};

/// One common subtree set with its intra-set content similarity.
struct RankedSubtreeSet {
  CommonSubtreeSet set;
  /// Mean pairwise cosine of the (TFIDF-weighted) subtree content vectors:
  /// near 1 for static regions (nav bars, boilerplate), near 0 for
  /// query-dependent regions.
  double intra_similarity = 1.0;

  bool IsDynamic(double threshold) const {
    return intra_similarity <= threshold;
  }
};

/// \brief Cross-page analysis step 2: computes intra-set content similarity
/// for every common subtree set and returns the sets sorted ascending
/// (most-dynamic first — the paper's rank order).
///
/// Singleton sets get similarity 1.0: with no cross-page counterpart there
/// is no evidence of query-dependence.
std::vector<RankedSubtreeSet> RankSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<CommonSubtreeSet>& sets,
    const SubtreeRankOptions& options = {});

/// The same ranking over terms already analysed, for many clusters at
/// once: page i of `trees` is page `term_pages[i]` of
/// `terms`. Every similarity is bit-identical to analysing `trees` alone,
/// because each set renumbers its terms in first-encounter order.
std::vector<RankedSubtreeSet> RankSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<CommonSubtreeSet>& sets, const PageTerms& terms,
    const std::vector<int>& term_pages, const SubtreeRankOptions& options);

}  // namespace thor::core

#endif  // THOR_CORE_SUBTREE_RANKING_H_
