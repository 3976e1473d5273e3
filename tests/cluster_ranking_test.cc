#include "src/core/cluster_ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "src/core/evaluation.h"
#include "src/core/page_clustering.h"
#include "src/core/signature_builder.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"

namespace thor::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Test-local copy of RankClusters before term analysis was memoized: each
// page's DistinctTermCount (tokenising its joined SubtreeText), averaged in
// page order.
std::vector<RankedCluster> ReferenceRanking(const std::vector<Page>& pages,
                                            const std::vector<int>& assignment,
                                            int k) {
  const ClusterRankOptions options;
  std::vector<RankedCluster> ranked;
  for (int c = 0; c < k; ++c) {
    RankedCluster rc;
    rc.cluster = c;
    for (size_t i = 0; i < pages.size(); ++i) {
      if (assignment[i] != c) continue;
      ++rc.num_pages;
      rc.avg_distinct_terms += DistinctTermCount(pages[i].tree);
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

TEST(ClusterRankingTest, DistinctTermsMatchDistinctTermCountBitForBit) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 8;
  fleet_options.seed = 7;
  fleet_options.drift.seed = 2026;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = 40;
  probe.num_nonsense_words = 4;
  int clusters_checked = 0;
  for (int epoch : {0, 2}) {
    deepweb::SetFleetEpoch(&fleet, epoch);
    for (const deepweb::DeepWebSite& site : fleet) {
      SCOPED_TRACE("site " + std::to_string(site.config().site_id) +
                   " epoch " + std::to_string(epoch));
      std::vector<Page> pages = ToPages(deepweb::BuildSiteSample(site, probe));
      auto clustering = ClusterPages(pages, {});
      ASSERT_TRUE(clustering.ok());
      auto ranked = RankClusters(pages, clustering->assignment, clustering->k);
      auto expected =
          ReferenceRanking(pages, clustering->assignment, clustering->k);
      ASSERT_EQ(ranked.size(), expected.size());
      for (size_t i = 0; i < ranked.size(); ++i) {
        EXPECT_EQ(ranked[i].cluster, expected[i].cluster);
        EXPECT_EQ(Bits(ranked[i].avg_distinct_terms),
                  Bits(expected[i].avg_distinct_terms));
        EXPECT_EQ(Bits(ranked[i].score), Bits(expected[i].score));
        ++clusters_checked;
      }
    }
  }
  EXPECT_GE(clusters_checked, 32);
}

TEST(ClusterRankingTest, ContentRichClustersRankAboveNoMatchClusters) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  auto sample = deepweb::BuildSiteSample(fleet[0], deepweb::ProbeOptions{});
  auto pages = ToPages(sample);
  PageClusteringOptions options;
  options.kmeans.k = 4;
  auto clustering = ClusterPages(pages, options);
  ASSERT_TRUE(clustering.ok());
  auto ranked = RankClusters(pages, clustering->assignment, clustering->k);
  ASSERT_GE(ranked.size(), 2u);
  // Scores sorted descending.
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  // Compute per-cluster pagelet density: the top-ranked cluster must
  // contain answer pages, the bottom one mostly not.
  auto pagelet_fraction = [&](int cluster) {
    int total = 0;
    int with = 0;
    for (size_t i = 0; i < pages.size(); ++i) {
      if (clustering->assignment[i] != cluster) continue;
      ++total;
      if (sample.pages[i].pagelet_node != html::kInvalidNode) ++with;
    }
    return total > 0 ? static_cast<double>(with) / total : 0.0;
  };
  EXPECT_GT(pagelet_fraction(ranked.front().cluster), 0.9);
  EXPECT_LT(pagelet_fraction(ranked.back().cluster), 0.1);
}

TEST(ClusterRankingTest, EmptyClustersOmitted) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = 10;
  probe.num_nonsense_words = 2;
  auto sample = deepweb::BuildSiteSample(fleet[0], probe);
  auto pages = ToPages(sample);
  // Hand-build an assignment that leaves cluster 2 empty.
  std::vector<int> assignment(pages.size(), 0);
  assignment[0] = 1;
  auto ranked = RankClusters(pages, assignment, 3);
  EXPECT_EQ(ranked.size(), 2u);
  int total_pages = 0;
  for (const auto& rc : ranked) total_pages += rc.num_pages;
  EXPECT_EQ(total_pages, static_cast<int>(pages.size()));
}

TEST(ClusterRankingTest, ScoresAreNormalizedWeightedSums) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = 20;
  probe.num_nonsense_words = 2;
  auto sample = deepweb::BuildSiteSample(fleet[0], probe);
  auto pages = ToPages(sample);
  std::vector<int> assignment(pages.size());
  for (size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int>(i % 2);
  }
  auto ranked = RankClusters(pages, assignment, 2);
  for (const auto& rc : ranked) {
    EXPECT_GE(rc.score, 0.0);
    EXPECT_LE(rc.score, 1.0 + 1e-12);
    EXPECT_GT(rc.avg_distinct_terms, 0.0);
    EXPECT_GT(rc.avg_max_fanout, 0.0);
    EXPECT_GT(rc.avg_page_size, 0.0);
  }
  // The per-criterion maximum cluster scores 1.0 when weights sum to 1 and
  // it dominates all three criteria; at minimum the best score exceeds the
  // mean of the weights times 1.
  EXPECT_GT(ranked.front().score, 0.5);
}

TEST(ClusterRankingTest, CustomWeightsChangeTheWinner) {
  // Build two synthetic pages: one tiny but term-rich, one huge but
  // term-poor; ranking by terms-only vs size-only must flip the order.
  std::vector<Page> pages;
  pages.push_back(Page::Parse(
      "u1", "<div><p>alpha beta gamma delta epsilon zeta eta theta</p></div>"));
  std::string big = "<div>";
  for (int i = 0; i < 200; ++i) big += "<p>word word word word</p>";
  big += "</div>";
  pages.push_back(Page::Parse("u2", std::move(big)));
  std::vector<int> assignment = {0, 1};
  ClusterRankOptions terms_only;
  terms_only.weight_distinct_terms = 1.0;
  terms_only.weight_fanout = 0.0;
  terms_only.weight_page_size = 0.0;
  auto by_terms = RankClusters(pages, assignment, 2, terms_only);
  EXPECT_EQ(by_terms.front().cluster, 0);
  ClusterRankOptions size_only;
  size_only.weight_distinct_terms = 0.0;
  size_only.weight_fanout = 0.0;
  size_only.weight_page_size = 1.0;
  auto by_size = RankClusters(pages, assignment, 2, size_only);
  EXPECT_EQ(by_size.front().cluster, 1);
}

}  // namespace
}  // namespace thor::core
