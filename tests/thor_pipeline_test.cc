#include "src/core/thor.h"

#include <string>

#include <gtest/gtest.h>

#include "src/cluster/quality.h"
#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"

namespace thor::core {
namespace {

std::vector<deepweb::SiteSample> SmallCorpus(int sites) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = sites;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  return deepweb::BuildCorpus(fleet, deepweb::ProbeOptions{});
}

TEST(ThorPipelineTest, EndToEndMatchesPaperQualityBand) {
  auto corpus = SmallCorpus(5);
  PrecisionRecall total;
  double entropy_sum = 0.0;
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    auto result = RunThor(pages, ThorOptions{});
    ASSERT_TRUE(result.ok());
    entropy_sum += cluster::ClusteringEntropy(result->clustering.assignment,
                                              sample.ClassLabels());
    total.Add(EvaluatePagelets(sample, *result));
  }
  // The paper reports P=0.97, R=0.96, entropy around 0.04 for its corpus;
  // the simulator is cleaner, so require at least the paper's band.
  EXPECT_GT(total.Precision(), 0.9);
  EXPECT_GT(total.Recall(), 0.9);
  EXPECT_LT(entropy_sum / corpus.size(), 0.15);
}

TEST(ThorPipelineTest, ObjectsExtractedForMultiMatchPages) {
  auto corpus = SmallCorpus(2);
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    auto result = RunThor(pages, ThorOptions{});
    ASSERT_TRUE(result.ok());
    PrecisionRecall object_pr;
    for (const auto& page_result : result->pages) {
      const auto& truth =
          sample.pages[static_cast<size_t>(page_result.page_index)];
      if (truth.true_class != deepweb::PageClass::kMultiMatch) continue;
      if (page_result.pagelet != truth.pagelet_node) continue;
      object_pr.Add(EvaluateObjects(truth, page_result.objects));
    }
    if (object_pr.truth > 0) {
      EXPECT_GT(object_pr.Recall(), 0.9);
      EXPECT_GT(object_pr.Precision(), 0.9);
    }
  }
}

TEST(ThorPipelineTest, FixedClusterPassCountIsHonored) {
  auto corpus = SmallCorpus(1);
  auto pages = ToPages(corpus[0]);
  ThorOptions options;
  options.clustering.kmeans.k = 3;
  options.clusters_to_pass = 1;
  options.veto_nonsense_clusters = false;
  auto result = RunThor(pages, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->passed_clusters.size(), 1u);
  options.clusters_to_pass = 3;
  auto result3 = RunThor(pages, options);
  ASSERT_TRUE(result3.ok());
  EXPECT_EQ(result3->passed_clusters.size(), 3u);
}

TEST(ThorPipelineTest, PassingMoreClustersTradesPrecisionForRecall) {
  // Figure 11's mechanism: recall never decreases with m, precision never
  // increases (aggregated over sites).
  auto corpus = SmallCorpus(4);
  PrecisionRecall pr_by_m[3];
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    for (int m = 1; m <= 3; ++m) {
      ThorOptions options;
      options.clustering.kmeans.k = 3;
      options.clusters_to_pass = m;
      options.veto_nonsense_clusters = false;
      auto result = RunThor(pages, options);
      ASSERT_TRUE(result.ok());
      pr_by_m[m - 1].Add(EvaluatePagelets(sample, *result));
    }
  }
  EXPECT_LE(pr_by_m[0].Recall(), pr_by_m[2].Recall() + 1e-9);
  EXPECT_GE(pr_by_m[0].Precision(), pr_by_m[2].Precision() - 1e-9);
}

TEST(ThorPipelineTest, NonsenseVetoImprovesPrecisionWhenPassingAll) {
  auto corpus = SmallCorpus(3);
  PrecisionRecall with_veto;
  PrecisionRecall without_veto;
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    ThorOptions base;
    base.cluster_score_fraction = 0.0;  // pass everything not vetoed
    ThorOptions no_veto = base;
    no_veto.veto_nonsense_clusters = false;
    auto a = RunThor(pages, base);
    auto b = RunThor(pages, no_veto);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    with_veto.Add(EvaluatePagelets(sample, *a));
    without_veto.Add(EvaluatePagelets(sample, *b));
  }
  EXPECT_GE(with_veto.Precision(), without_veto.Precision());
}

TEST(ThorPipelineTest, ResultStructureIsConsistent) {
  auto corpus = SmallCorpus(1);
  auto pages = ToPages(corpus[0]);
  auto result = RunThor(pages, ThorOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.assignment.size(), pages.size());
  EXPECT_FALSE(result->ranked_clusters.empty());
  EXPECT_FALSE(result->passed_clusters.empty());
  for (const auto& page_result : result->pages) {
    ASSERT_GE(page_result.page_index, 0);
    ASSERT_LT(page_result.page_index, static_cast<int>(pages.size()));
    EXPECT_NE(page_result.pagelet, html::kInvalidNode);
    // The extracted node exists in that page's tree.
    EXPECT_LT(page_result.pagelet,
              pages[static_cast<size_t>(page_result.page_index)]
                  .tree.node_count());
    EXPECT_FALSE(page_result.objects.empty());
  }
}

TEST(ThorPipelineTest, RejectsEmptyInput) {
  EXPECT_FALSE(RunThor({}, ThorOptions{}).ok());
}

TEST(ThorPipelineTest, DeterministicAcrossRuns) {
  auto corpus = SmallCorpus(1);
  auto pages = ToPages(corpus[0]);
  auto a = RunThor(pages, ThorOptions{});
  auto b = RunThor(pages, ThorOptions{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->clustering.assignment, b->clustering.assignment);
  ASSERT_EQ(a->pages.size(), b->pages.size());
  for (size_t i = 0; i < a->pages.size(); ++i) {
    EXPECT_EQ(a->pages[i].page_index, b->pages[i].page_index);
    EXPECT_EQ(a->pages[i].pagelet, b->pages[i].pagelet);
  }
}

void ExpectIdenticalResults(const ThorResult& a, const ThorResult& b) {
  EXPECT_EQ(a.clustering.assignment, b.clustering.assignment);
  EXPECT_EQ(a.clustering.internal_similarity,
            b.clustering.internal_similarity);  // bitwise
  EXPECT_EQ(a.passed_clusters, b.passed_clusters);
  ASSERT_EQ(a.ranked_clusters.size(), b.ranked_clusters.size());
  for (size_t i = 0; i < a.ranked_clusters.size(); ++i) {
    EXPECT_EQ(a.ranked_clusters[i].cluster, b.ranked_clusters[i].cluster);
    EXPECT_EQ(a.ranked_clusters[i].score, b.ranked_clusters[i].score);
  }
  ASSERT_EQ(a.pages.size(), b.pages.size());
  for (size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].page_index, b.pages[i].page_index);
    EXPECT_EQ(a.pages[i].pagelet, b.pages[i].pagelet);
    ASSERT_EQ(a.pages[i].objects.size(), b.pages[i].objects.size());
    for (size_t o = 0; o < a.pages[i].objects.size(); ++o) {
      EXPECT_EQ(a.pages[i].objects[o].parts, b.pages[i].objects[o].parts);
    }
  }
}

TEST(ThorPipelineTest, IdenticalAcrossThreadCounts) {
  auto corpus = SmallCorpus(2);
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    ThorOptions serial;
    serial.SetAllThreads(1);
    auto a = RunThor(pages, serial);
    ASSERT_TRUE(a.ok());
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThorOptions parallel;
      parallel.SetAllThreads(threads);
      auto b = RunThor(pages, parallel);
      ASSERT_TRUE(b.ok());
      ExpectIdenticalResults(*a, *b);
    }
  }
}

TEST(ThorPipelineTest, ParallelRunsRepeatable) {
  auto corpus = SmallCorpus(1);
  auto pages = ToPages(corpus[0]);
  ThorOptions options;
  options.SetAllThreads(8);
  auto a = RunThor(pages, options);
  auto b = RunThor(pages, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalResults(*a, *b);
}

TEST(ThorPipelineTest, RobustToTemplateChange) {
  // The paper claims robustness to presentation changes: rerunning THOR on
  // a site whose templates differ (different site id => different style)
  // still extracts correctly.
  auto corpus = SmallCorpus(6);
  int good_sites = 0;
  for (const auto& sample : corpus) {
    auto pages = ToPages(sample);
    auto result = RunThor(pages, ThorOptions{});
    ASSERT_TRUE(result.ok());
    auto pr = EvaluatePagelets(sample, *result);
    if (pr.Precision() > 0.9 && pr.Recall() > 0.9) ++good_sites;
  }
  EXPECT_GE(good_sites, 5);
}

}  // namespace
}  // namespace thor::core
