// Miniature versions of the paper's evaluation, asserted as invariants:
// every comparative claim of Figures 4-11 must keep holding on a small
// corpus. These guard the *reproduction* itself against regressions; the
// full-scale numbers live in bench/ and EXPERIMENTS.md.

#include <chrono>

#include <gtest/gtest.h>

#include "src/cluster/quality.h"
#include "src/core/evaluation.h"
#include "src/core/signature_builder.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/synthetic_corpus.h"
#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/treedist/zhang_shasha.h"

namespace thor {
namespace {

class PaperShapes : public ::testing::Test {
 protected:
  static constexpr int kSites = 6;

  static const std::vector<deepweb::SiteSample>& Corpus() {
    static const auto& corpus = *new std::vector<deepweb::SiteSample>(
        bench_corpus());
    return corpus;
  }

  static std::vector<deepweb::SiteSample> bench_corpus() {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = kSites;
    auto fleet = deepweb::GenerateSiteFleet(fleet_options);
    return deepweb::BuildCorpus(fleet, deepweb::ProbeOptions{});
  }

  static double ApproachEntropy(core::ClusteringApproach approach) {
    double total = 0.0;
    for (const auto& sample : Corpus()) {
      auto pages = core::ToPages(sample);
      core::PageClusteringOptions options;
      options.approach = approach;
      options.kmeans.k = 3;
      auto result = core::ClusterPages(pages, options);
      if (!result.ok()) continue;
      total += cluster::ClusteringEntropy(result->assignment,
                                          sample.ClassLabels());
    }
    return total / kSites;
  }
};

TEST_F(PaperShapes, Figure4EntropyOrdering) {
  double ttag = ApproachEntropy(core::ClusteringApproach::kTfidfTags);
  double rtag = ApproachEntropy(core::ClusteringApproach::kRawTags);
  double tcon = ApproachEntropy(core::ClusteringApproach::kTfidfContent);
  double url = ApproachEntropy(core::ClusteringApproach::kUrl);
  double random = ApproachEntropy(core::ClusteringApproach::kRandom);
  // Tag signatures beat TFIDF content, which beats URL, which is no better
  // than random (same-form URLs carry no signal).
  EXPECT_LT(ttag, 0.2);
  EXPECT_LT(rtag, 0.25);
  EXPECT_LT(ttag, tcon);
  EXPECT_LT(tcon, url + 0.05);
  EXPECT_GT(random, 0.5);
  EXPECT_GT(url, 0.4);
}

TEST_F(PaperShapes, Figure6SyntheticScaleStability) {
  deepweb::SyntheticCorpusModel model =
      deepweb::SyntheticCorpusModel::Fit(Corpus()[0]);
  double entropy_small = 0.0;
  double entropy_large = 0.0;
  for (int scale : {110, 1100}) {
    Rng rng(5);
    auto pages = model.Generate(scale, &rng);
    std::vector<ir::SparseVector> tags;
    std::vector<int> labels;
    for (auto& page : pages) {
      tags.push_back(std::move(page.tag_counts));
      labels.push_back(page.class_label);
    }
    cluster::KMeansOptions kmeans;
    kmeans.k = 3;
    auto result =
        core::ClusterSignatures(tags, ir::Weighting::kTfidf, kmeans);
    ASSERT_TRUE(result.ok());
    double entropy =
        cluster::ClusteringEntropy(result->assignment, labels);
    (scale == 110 ? entropy_small : entropy_large) = entropy;
  }
  // Growing the collection 10x must not degrade entropy materially.
  EXPECT_LT(entropy_large, entropy_small + 0.15);
  EXPECT_LT(entropy_large, 0.3);
}

TEST_F(PaperShapes, Figure8CombinedDistanceBeatsSingleFeatures) {
  core::PrecisionRecall by_metric[2];  // 0 = fanout-only, 1 = combined
  for (const auto& sample : Corpus()) {
    std::vector<const html::ArenaTree*> trees;
    std::vector<int> indices;
    for (size_t i = 0; i < sample.pages.size(); ++i) {
      if (sample.pages[i].true_class == deepweb::PageClass::kMultiMatch) {
        trees.push_back(&sample.pages[i].tree);
        indices.push_back(static_cast<int>(i));
      }
    }
    if (trees.size() < 3) continue;
    for (int variant = 0; variant < 2; ++variant) {
      core::Phase2Options options;
      if (variant == 0) {
        options.common.weights = core::ShapeDistanceWeights::FanoutOnly();
        options.common.exact_path_first = false;
      }
      auto result = core::RunPhase2(trees, options);
      by_metric[variant].Add(
          core::EvaluatePhase2(sample, indices, result.pagelets));
    }
  }
  EXPECT_GT(by_metric[1].Precision(), by_metric[0].Precision() - 1e-9);
  EXPECT_GT(by_metric[1].Recall(), by_metric[0].Recall());
  EXPECT_GT(by_metric[1].Recall(), 0.9);
}

TEST_F(PaperShapes, Figure9TfidfMakesSimilarityBimodal) {
  int low_with = 0;
  int high_with = 0;
  int middle_with = 0;
  for (const auto& sample : Corpus()) {
    std::vector<const html::ArenaTree*> trees;
    for (const auto& page : sample.pages) {
      if (page.true_class == deepweb::PageClass::kMultiMatch) {
        trees.push_back(&page.tree);
      }
    }
    if (trees.size() < 3) continue;
    std::vector<std::vector<html::NodeId>> candidates;
    for (const auto* tree : trees) {
      candidates.push_back(core::CandidateSubtrees(*tree));
    }
    auto sets = core::FindCommonSubtreeSets(trees, candidates, {});
    for (const auto& ranked : core::RankSubtreeSets(trees, sets, {})) {
      if (ranked.set.members.size() < 2) continue;
      if (ranked.intra_similarity < 0.3) {
        ++low_with;
      } else if (ranked.intra_similarity > 0.7) {
        ++high_with;
      } else {
        ++middle_with;
      }
    }
  }
  // Bimodal: the middle of the scale is nearly empty, so the paper's 0.5
  // threshold is uncritical.
  EXPECT_GT(low_with, 0);
  EXPECT_GT(high_with, 0);
  EXPECT_LT(middle_with, (low_with + high_with) / 4 + 1);
}

TEST_F(PaperShapes, Figure10TfidfTagPipelineBeatsContentPipeline) {
  core::PrecisionRecall ttag;
  core::PrecisionRecall tcon;
  for (const auto& sample : Corpus()) {
    auto pages = core::ToPages(sample);
    for (int variant = 0; variant < 2; ++variant) {
      core::ThorOptions options;
      options.clustering.approach =
          variant == 0 ? core::ClusteringApproach::kTfidfTags
                       : core::ClusteringApproach::kTfidfContent;
      auto result = core::RunThor(pages, options);
      if (!result.ok()) continue;
      (variant == 0 ? ttag : tcon)
          .Add(core::EvaluatePagelets(sample, *result));
    }
  }
  EXPECT_GT(ttag.Precision(), 0.9);
  EXPECT_GT(ttag.Recall(), 0.9);
  EXPECT_GE(ttag.Recall(), tcon.Recall() - 1e-9);
}

TEST_F(PaperShapes, TreeEditDistanceIsOrdersOfMagnitudeSlower) {
  const auto& sample = Corpus()[0];
  // Compare per-pair costs on a few pages.
  std::vector<treedist::OrderedTree> trees;
  std::vector<ir::SparseVector> signatures;
  for (int i = 0; i < 6; ++i) {
    const auto& page = sample.pages[static_cast<size_t>(i)];
    trees.push_back(
        treedist::OrderedTree::FromTree(page.tree, page.tree.root()));
    auto counts = core::TagCountVector(page.tree);
    counts.Normalize();
    signatures.push_back(std::move(counts));
  }
  auto clock = [] {
    return std::chrono::steady_clock::now();
  };
  auto t0 = clock();
  long long edit_checksum = 0;
  for (size_t i = 0; i < trees.size(); ++i) {
    for (size_t j = i + 1; j < trees.size(); ++j) {
      edit_checksum += treedist::TreeEditDistance(trees[i], trees[j]);
    }
  }
  auto t1 = clock();
  double cosine_checksum = 0.0;
  for (int repeat = 0; repeat < 100; ++repeat) {
    for (size_t i = 0; i < signatures.size(); ++i) {
      for (size_t j = i + 1; j < signatures.size(); ++j) {
        cosine_checksum +=
            ir::CosineNormalized(signatures[i], signatures[j]);
      }
    }
  }
  auto t2 = clock();
  (void)edit_checksum;
  (void)cosine_checksum;
  double edit_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  double cosine_ns =
      std::chrono::duration<double, std::nano>(t2 - t1).count() / 100.0;
  EXPECT_GT(edit_ns, 50.0 * cosine_ns);
}

TEST_F(PaperShapes, CorpusStatisticsMatchPaperScale) {
  double tags = 0.0;
  double terms = 0.0;
  int pages = 0;
  for (const auto& sample : Corpus()) {
    for (const auto& page : sample.pages) {
      tags += core::DistinctTagCount(page.tree);
      terms += core::DistinctTermCount(page.tree);
      ++pages;
    }
  }
  tags /= pages;
  terms /= pages;
  // Paper: 22.3 distinct tags, 184.0 distinct terms per page. Require the
  // simulator to stay in a realistic band: tags O(20), terms close to an
  // order of magnitude more.
  EXPECT_GT(tags, 12.0);
  EXPECT_LT(tags, 40.0);
  EXPECT_GT(terms / tags, 4.0);
}

}  // namespace
}  // namespace thor
