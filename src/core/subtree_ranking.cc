#include "src/core/subtree_ranking.h"

#include <algorithm>
#include <cstdint>

#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/util/parallel.h"

namespace thor::core {

namespace {

// Raw term-count vectors of the set's members. Term ids are renumbered per
// set in first-encounter order (members in set order, nodes in preorder,
// terms in text order): the order a fresh per-set vocabulary would intern
// them in, so every vector, and every weight and cosine built on it, is the
// same as interning the terms' strings.
std::vector<ir::SparseVector> MemberTermCounts(
    const std::vector<const html::ArenaTree*>& trees,
    const CommonSubtreeSet& set, const PageTerms& terms,
    const std::vector<int>& term_pages) {
  std::vector<int32_t> local_id(static_cast<size_t>(terms.num_terms()), -1);
  std::vector<int> counts;         // by local id, for the current member
  std::vector<int32_t> touched;    // local ids the current member counted
  std::vector<ir::SparseVector> vectors;
  vectors.reserve(set.members.size());
  for (const SubtreeRef& ref : set.members) {
    const size_t page = static_cast<size_t>(ref.page_index);
    const size_t term_page = static_cast<size_t>(term_pages[page]);
    trees[page]->ForEachInSubtree(ref.node, [&](html::NodeId id) {
      for (int32_t term : terms.NodeTerms(term_page, id)) {
        int32_t& local = local_id[static_cast<size_t>(term)];
        if (local < 0) {
          local = static_cast<int32_t>(counts.size());
          counts.push_back(0);
        }
        if (counts[static_cast<size_t>(local)]++ == 0) touched.push_back(local);
      }
    });
    std::vector<ir::VectorEntry> entries;
    entries.reserve(touched.size());
    for (int32_t local : touched) {
      int& count = counts[static_cast<size_t>(local)];
      entries.push_back({local, static_cast<double>(count)});
      count = 0;
    }
    touched.clear();
    vectors.push_back(ir::SparseVector::FromPairs(std::move(entries)));
  }
  return vectors;
}

}  // namespace

std::vector<RankedSubtreeSet> RankSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<CommonSubtreeSet>& sets,
    const SubtreeRankOptions& options) {
  std::vector<int> term_pages(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    term_pages[i] = static_cast<int>(i);
  }
  return RankSubtreeSets(trees, sets, PageTerms(trees),
                         term_pages, options);
}

std::vector<RankedSubtreeSet> RankSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<CommonSubtreeSet>& sets, const PageTerms& terms,
    const std::vector<int>& term_pages, const SubtreeRankOptions& options) {
  // `terms` was analysed up front; the parallel region only reads it.
  // Every set carries its own vocabulary and TFIDF statistics, exactly as
  // the paper scopes them ("n_j is the total number of subtrees in common
  // subtree set j") — which also makes the sets independent units of work.
  std::vector<RankedSubtreeSet> ranked = ParallelMap(
      sets.size(),
      [&](size_t set_index) {
        const CommonSubtreeSet& set = sets[set_index];
        RankedSubtreeSet rs;
        rs.set = set;
        if (set.members.size() < 2) {
          rs.intra_similarity = 1.0;  // no cross-page evidence
          return rs;
        }
        std::vector<ir::SparseVector> counts =
            MemberTermCounts(trees, set, terms, term_pages);
        ir::TfidfModel model = ir::TfidfModel::Fit(counts);
        std::vector<ir::SparseVector> weighted = model.WeighAll(
            counts,
            options.use_tfidf ? ir::Weighting::kTfidf
                              : ir::Weighting::kRawFrequency,
            /*normalize=*/true);
        double sum = 0.0;
        int pairs = 0;
        for (size_t i = 0; i < weighted.size(); ++i) {
          for (size_t j = i + 1; j < weighted.size(); ++j) {
            sum += ir::CosineNormalized(weighted[i], weighted[j]);
            ++pairs;
          }
        }
        rs.intra_similarity = pairs > 0 ? sum / pairs : 1.0;
        return rs;
      },
      options.threads);
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedSubtreeSet& a, const RankedSubtreeSet& b) {
              return a.intra_similarity < b.intra_similarity;
            });
  return ranked;
}

}  // namespace thor::core
