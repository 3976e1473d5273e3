#include "src/core/subtree_ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/core/evaluation.h"
#include "src/core/page_clustering.h"
#include "src/core/subtree_filter.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/ir/vocabulary.h"
#include "src/text/term_tokenizer.h"

namespace thor::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Test-local copy of one set's score before term analysis was memoized:
// ExtractTerms per content node, a fresh Vocabulary per set, FromCounts, a
// TfidfModel fitted on the set, and the mean cosine over all pairs.
double ReferenceIntraSimilarity(const std::vector<const html::ArenaTree*>& trees,
                                const CommonSubtreeSet& set,
                                const SubtreeRankOptions& options) {
  if (set.members.size() < 2) return 1.0;
  ir::Vocabulary vocab;
  std::vector<ir::SparseVector> counts;
  for (const SubtreeRef& ref : set.members) {
    const html::ArenaTree& tree = *trees[static_cast<size_t>(ref.page_index)];
    std::unordered_map<int32_t, int> member_counts;
    tree.ForEachInSubtree(ref.node, [&](html::NodeId id) {
      const html::ArenaNode& n = tree.node(id);
      if (n.is_tag()) return;
      for (const std::string& term :
           text::ExtractTerms(n.text(), text::TermOptions{})) {
        ++member_counts[vocab.Intern(term)];
      }
    });
    counts.push_back(ir::SparseVector::FromCounts(member_counts));
  }
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  std::vector<ir::SparseVector> weighted = model.WeighAll(
      counts,
      options.use_tfidf ? ir::Weighting::kTfidf : ir::Weighting::kRawFrequency,
      /*normalize=*/true);
  double sum = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < weighted.size(); ++i) {
    for (size_t j = i + 1; j < weighted.size(); ++j) {
      sum += ir::CosineNormalized(weighted[i], weighted[j]);
      ++pairs;
    }
  }
  return pairs > 0 ? sum / pairs : 1.0;
}

TEST(SubtreeRankingTest, MemoizedTermsMatchPerSetVocabularyBitForBit) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 8;
  fleet_options.seed = 7;
  fleet_options.drift.seed = 2026;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = 40;
  probe.num_nonsense_words = 4;
  int sets_checked = 0;
  for (int epoch : {0, 2}) {
    deepweb::SetFleetEpoch(&fleet, epoch);
    for (const deepweb::DeepWebSite& site : fleet) {
      SCOPED_TRACE("site " + std::to_string(site.config().site_id) +
                   " epoch " + std::to_string(epoch));
      std::vector<Page> pages = ToPages(deepweb::BuildSiteSample(site, probe));
      auto clustering = ClusterPages(pages, {});
      ASSERT_TRUE(clustering.ok());
      // Every page of the site analysed at once, as RunThor shares one
      // analysis among all clusters.
      std::vector<const html::ArenaTree*> site_trees;
      for (const Page& page : pages) site_trees.push_back(&page.tree);
      const PageTerms site_terms(site_trees);
      for (int c = 0; c < clustering->k; ++c) {
        std::vector<const html::ArenaTree*> trees;
        std::vector<int> term_pages;
        std::vector<std::vector<html::NodeId>> candidates;
        for (size_t i = 0; i < pages.size(); ++i) {
          if (clustering->assignment[i] != c) continue;
          trees.push_back(&pages[i].tree);
          term_pages.push_back(static_cast<int>(i));
          candidates.push_back(CandidateSubtrees(pages[i].tree));
        }
        if (trees.size() < 2) continue;
        std::vector<CommonSubtreeSet> sets =
            FindCommonSubtreeSets(trees, candidates);
        for (bool use_tfidf : {true, false}) {
          SubtreeRankOptions options;
          options.use_tfidf = use_tfidf;
          // The reference in input order, ranked by RankSubtreeSets' sort.
          std::vector<RankedSubtreeSet> expected;
          for (const CommonSubtreeSet& set : sets) {
            RankedSubtreeSet rs;
            rs.set = set;
            rs.intra_similarity = ReferenceIntraSimilarity(trees, set, options);
            expected.push_back(std::move(rs));
          }
          std::sort(expected.begin(), expected.end(),
                    [](const RankedSubtreeSet& a, const RankedSubtreeSet& b) {
                      return a.intra_similarity < b.intra_similarity;
                    });
          for (int threads : {1, 4}) {
            options.threads = threads;
            // Each cluster on its own analysis, and on the site's shared
            // one.
            for (const auto& ranked :
                 {RankSubtreeSets(trees, sets, options),
                  RankSubtreeSets(trees, sets, site_terms, term_pages,
                                  options)}) {
              ASSERT_EQ(ranked.size(), expected.size());
              for (size_t i = 0; i < ranked.size(); ++i) {
                ASSERT_EQ(Bits(ranked[i].intra_similarity),
                          Bits(expected[i].intra_similarity))
                    << "tfidf " << use_tfidf << " threads " << threads;
                const auto& got = ranked[i].set.members;
                const auto& want = expected[i].set.members;
                ASSERT_EQ(got.size(), want.size());
                for (size_t m = 0; m < got.size(); ++m) {
                  EXPECT_EQ(got[m].page_index, want[m].page_index);
                  EXPECT_EQ(got[m].node, want[m].node);
                }
              }
            }
          }
          sets_checked += static_cast<int>(sets.size());
        }
      }
    }
  }
  EXPECT_GE(sets_checked, 200);
}

// Pages with a static footer region and a dynamic answers region.
std::string MixedPage(const std::string& dynamic_text) {
  return "<div><p>static navigation links and boilerplate text</p></div>"
         "<table><tr><td>" + dynamic_text + "</td></tr></table>"
         "<div><p>copyright legal footer always identical words</p></div>";
}

struct Fixture {
  std::vector<html::ArenaTree> storage;
  std::vector<const html::ArenaTree*> trees;
  std::vector<CommonSubtreeSet> sets;

  explicit Fixture(const std::vector<std::string>& dynamic_texts) {
    for (const auto& text : dynamic_texts) {
      storage.push_back(html::ParseArena(MixedPage(text)));
    }
    std::vector<std::vector<html::NodeId>> candidates;
    for (const auto& tree : storage) {
      trees.push_back(&tree);
      candidates.push_back(CandidateSubtrees(tree));
    }
    CommonSubtreeOptions options;
    options.prototype_page = 0;
    sets = FindCommonSubtreeSets(trees, candidates, options);
  }
};

const CommonSubtreeSet* FindSetByTag(const Fixture& f, html::TagId tag) {
  for (const auto& set : f.sets) {
    const auto& first = set.members[0];
    if (f.trees[static_cast<size_t>(first.page_index)]
            ->node(first.node)
            .tag == tag) {
      return &set;
    }
  }
  return nullptr;
}

TEST(SubtreeRankingTest, DynamicRegionsRankBelowStaticOnes) {
  Fixture f({"wildly different salmon words", "other unrelated zebra terms",
             "completely distinct walrus content", "nothing shared here",
             "every page differs entirely"});
  auto ranked = RankSubtreeSets(f.trees, f.sets, {});
  ASSERT_GE(ranked.size(), 2u);
  // Sorted ascending by intra-set similarity.
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].intra_similarity, ranked[i].intra_similarity);
  }
  // The most dynamic set must be the results region (table or its td);
  // the static footers sit at the top of the similarity scale.
  const auto& most_dynamic = ranked.front();
  EXPECT_LT(most_dynamic.intra_similarity, 0.2);
  const auto& most_static = ranked.back();
  EXPECT_GT(most_static.intra_similarity, 0.8);
}

TEST(SubtreeRankingTest, StaticSetsScoreNearOne) {
  Fixture f({"aaa", "bbb", "ccc", "ddd"});
  auto ranked = RankSubtreeSets(f.trees, f.sets, {});
  int static_sets = 0;
  for (const auto& rs : ranked) {
    if (rs.intra_similarity > 0.9) ++static_sets;
  }
  EXPECT_GE(static_sets, 2);  // nav and footer
}

TEST(SubtreeRankingTest, IsDynamicThreshold) {
  RankedSubtreeSet rs;
  rs.intra_similarity = 0.3;
  EXPECT_TRUE(rs.IsDynamic(0.5));
  EXPECT_FALSE(rs.IsDynamic(0.2));
}

TEST(SubtreeRankingTest, SingletonSetGetsSimilarityOne) {
  html::ArenaTree tree = html::ParseArena("<p>lonely content</p>");
  CommonSubtreeSet set;
  set.members.push_back({0, tree.ResolvePath("html/body/p")});
  std::vector<const html::ArenaTree*> trees = {&tree};
  auto ranked = RankSubtreeSets(trees, {set}, {});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].intra_similarity, 1.0);
}

TEST(SubtreeRankingTest, WithoutTfidfEchoRegionsLookStatic) {
  // Mostly-identical text with one varying word: raw weighting sees high
  // similarity, the paper's TFIDF weighting sees low similarity (the
  // varying word dominates once the shared terms are down-weighted). This
  // is the Figure 9 mechanism.
  Fixture f({"your search for apple did not match",
             "your search for banana did not match",
             "your search for cherry did not match",
             "your search for plum did not match"});
  const CommonSubtreeSet* td_set = FindSetByTag(f, html::Tag::kTd);
  ASSERT_NE(td_set, nullptr);
  SubtreeRankOptions with_tfidf;
  with_tfidf.use_tfidf = true;
  SubtreeRankOptions without_tfidf;
  without_tfidf.use_tfidf = false;
  auto tfidf_ranked = RankSubtreeSets(f.trees, {*td_set}, with_tfidf);
  auto raw_ranked = RankSubtreeSets(f.trees, {*td_set}, without_tfidf);
  ASSERT_EQ(tfidf_ranked.size(), 1u);
  ASSERT_EQ(raw_ranked.size(), 1u);
  EXPECT_LT(tfidf_ranked[0].intra_similarity,
            raw_ranked[0].intra_similarity);
  EXPECT_GT(raw_ranked[0].intra_similarity, 0.6);
}

TEST(SubtreeRankingTest, IdenticalContentScoresExactlyOne) {
  Fixture f({"same words", "same words", "same words"});
  const CommonSubtreeSet* td_set = FindSetByTag(f, html::Tag::kTd);
  ASSERT_NE(td_set, nullptr);
  auto ranked = RankSubtreeSets(f.trees, {*td_set}, {});
  EXPECT_NEAR(ranked[0].intra_similarity, 1.0, 1e-9);
}

TEST(SubtreeRankingTest, EmptySetsListIsFine) {
  std::vector<const html::ArenaTree*> trees;
  EXPECT_TRUE(RankSubtreeSets(trees, {}, {}).empty());
}

}  // namespace
}  // namespace thor::core
