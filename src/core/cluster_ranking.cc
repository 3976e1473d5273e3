#include "src/core/cluster_ranking.h"

#include <algorithm>
#include <cstdint>

namespace thor::core {

std::vector<RankedCluster> RankClusters(const std::vector<Page>& pages,
                                        const std::vector<int>& assignment,
                                        int k,
                                        const ClusterRankOptions& options) {
  std::vector<const html::ArenaTree*> trees;
  trees.reserve(pages.size());
  for (const Page& page : pages) trees.push_back(&page.tree);
  return RankClusters(pages, assignment, k, PageTerms(trees), options);
}

std::vector<RankedCluster> RankClusters(const std::vector<Page>& pages,
                                        const std::vector<int>& assignment,
                                        int k, const PageTerms& terms,
                                        const ClusterRankOptions& options) {
  // DistinctTermCount per page, by id: content nodes hold
  // whitespace-collapsed text and SubtreeText joins them with one space,
  // so tokenising node by node finds the same terms; every stored node
  // hangs off the root, so node storage holds exactly the content nodes
  // the root reaches.
  std::vector<int> seen_on(static_cast<size_t>(terms.num_terms()), -1);
  auto distinct_terms = [&](size_t page) {
    int distinct = 0;
    for (int32_t term : terms.PageTermIds(page)) {
      int& seen = seen_on[static_cast<size_t>(term)];
      if (seen == static_cast<int>(page)) continue;
      seen = static_cast<int>(page);
      ++distinct;
    }
    return distinct;
  };
  std::vector<RankedCluster> ranked;
  for (int c = 0; c < k; ++c) {
    RankedCluster rc;
    rc.cluster = c;
    for (size_t i = 0; i < pages.size() && i < assignment.size(); ++i) {
      if (assignment[i] != c) continue;
      ++rc.num_pages;
      rc.avg_distinct_terms += distinct_terms(i);
      rc.avg_max_fanout += pages[i].tree.MaxFanout();
      rc.avg_page_size += pages[i].size_bytes;
    }
    if (rc.num_pages == 0) continue;
    rc.avg_distinct_terms /= rc.num_pages;
    rc.avg_max_fanout /= rc.num_pages;
    rc.avg_page_size /= rc.num_pages;
    ranked.push_back(rc);
  }
  double max_terms = 0.0;
  double max_fanout = 0.0;
  double max_size = 0.0;
  for (const RankedCluster& rc : ranked) {
    max_terms = std::max(max_terms, rc.avg_distinct_terms);
    max_fanout = std::max(max_fanout, rc.avg_max_fanout);
    max_size = std::max(max_size, rc.avg_page_size);
  }
  for (RankedCluster& rc : ranked) {
    double terms = max_terms > 0 ? rc.avg_distinct_terms / max_terms : 0.0;
    double fanout = max_fanout > 0 ? rc.avg_max_fanout / max_fanout : 0.0;
    double size = max_size > 0 ? rc.avg_page_size / max_size : 0.0;
    rc.score = options.weight_distinct_terms * terms +
               options.weight_fanout * fanout +
               options.weight_page_size * size;
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedCluster& a, const RankedCluster& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.cluster < b.cluster;
            });
  return ranked;
}

}  // namespace thor::core
