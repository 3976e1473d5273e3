#include "src/core/cluster_ranking.h"

#include <algorithm>
#include <cstdint>

#include "src/text/term_tokenizer.h"

namespace thor::core {

namespace {

// DistinctTermCount for the pages of one RankClusters call: one analyzer
// stems each distinct token once, and a page's terms are counted by id.
// Content nodes hold whitespace-collapsed text and SubtreeText joins them
// with one space, so tokenising node by node finds the same terms; every
// stored node hangs off the root, so node storage holds exactly the
// content nodes the root reaches.
class DistinctTermCounter {
 public:
  int Count(const html::TagTree& tree) {
    ids_.clear();
    for (html::NodeId id = 0; id < tree.node_count(); ++id) {
      const html::Node& n = tree.node(id);
      if (n.kind == html::NodeKind::kContent) {
        analyzer_.AppendTermIds(n.text, &ids_);
      }
    }
    seen_on_.resize(static_cast<size_t>(analyzer_.num_terms()), 0);
    ++page_;
    int distinct = 0;
    for (int32_t term : ids_) {
      int& seen = seen_on_[static_cast<size_t>(term)];
      if (seen == page_) continue;
      seen = page_;
      ++distinct;
    }
    return distinct;
  }

 private:
  text::TermAnalyzer analyzer_;
  std::vector<int32_t> ids_;
  std::vector<int> seen_on_;  // term id -> last page (by page_) it was on
  int page_ = 0;
};

}  // namespace

std::vector<RankedCluster> RankClusters(const std::vector<Page>& pages,
                                        const std::vector<int>& assignment,
                                        int k,
                                        const ClusterRankOptions& options) {
  DistinctTermCounter distinct_terms;
  std::vector<RankedCluster> ranked;
  for (int c = 0; c < k; ++c) {
    RankedCluster rc;
    rc.cluster = c;
    for (size_t i = 0; i < pages.size() && i < assignment.size(); ++i) {
      if (assignment[i] != c) continue;
      ++rc.num_pages;
      rc.avg_distinct_terms += distinct_terms.Count(pages[i].tree);
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
