#ifndef THOR_CORE_CLUSTER_RANKING_H_
#define THOR_CORE_CLUSTER_RANKING_H_

#include <vector>

#include "src/core/page.h"
#include "src/core/page_terms.h"

namespace thor::core {

/// Weights of the three ranking criteria (paper Section 3.1.3). The paper
/// uses "a simple linear combination"; equal weights by default. Each
/// criterion is normalized by its maximum across clusters before mixing.
struct ClusterRankOptions {
  double weight_distinct_terms = 1.0 / 3.0;
  double weight_fanout = 1.0 / 3.0;
  double weight_page_size = 1.0 / 3.0;
};

/// One cluster with its likelihood-of-containing-QA-Pagelets score.
struct RankedCluster {
  int cluster = 0;
  int num_pages = 0;
  double score = 0.0;
  double avg_distinct_terms = 0.0;
  double avg_max_fanout = 0.0;
  double avg_page_size = 0.0;
};

/// Ranks the clusters of `assignment` (values in [0, k)) descending by
/// score; empty clusters are omitted. Only the top-m of this list advance
/// to Phase II.
std::vector<RankedCluster> RankClusters(const std::vector<Page>& pages,
                                        const std::vector<int>& assignment,
                                        int k,
                                        const ClusterRankOptions& options = {});

/// The same ranking over terms already analysed with the default
/// `text::TermOptions`: page i of `terms` is `pages[i]`.
std::vector<RankedCluster> RankClusters(const std::vector<Page>& pages,
                                        const std::vector<int>& assignment,
                                        int k, const PageTerms& terms,
                                        const ClusterRankOptions& options);

}  // namespace thor::core

#endif  // THOR_CORE_CLUSTER_RANKING_H_
