#include "src/core/pagelet_selection.h"

#include <gtest/gtest.h>

#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

// Phase-2 fixture over the multi-match pages of one simulated site.
struct SiteClusterFixture {
  deepweb::SiteSample sample;
  std::vector<const html::ArenaTree*> trees;
  std::vector<int> indices;

  explicit SiteClusterFixture(int site_id = 0,
                              deepweb::PageClass wanted =
                                  deepweb::PageClass::kMultiMatch) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = site_id + 1;
    auto fleet = deepweb::GenerateSiteFleet(fleet_options);
    sample = deepweb::BuildSiteSample(fleet[static_cast<size_t>(site_id)],
                                      deepweb::ProbeOptions{});
    for (size_t i = 0; i < sample.pages.size(); ++i) {
      if (sample.pages[i].true_class == wanted) {
        trees.push_back(&sample.pages[i].tree);
        indices.push_back(static_cast<int>(i));
      }
    }
  }
};

TEST(PageletSelectionTest, PicksTheMarkedRegionOnMultiMatchCluster) {
  SiteClusterFixture fixture;
  ASSERT_GE(fixture.trees.size(), 5u);
  Phase2Result result = RunPhase2(fixture.trees, {});
  ASSERT_FALSE(result.pagelets.empty());
  int correct = 0;
  for (const auto& pagelet : result.pagelets) {
    const auto& page =
        fixture.sample
            .pages[static_cast<size_t>(
                fixture.indices[static_cast<size_t>(pagelet.page_index)])];
    if (pagelet.node == page.pagelet_node) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / result.pagelets.size(), 0.9);
}

TEST(PageletSelectionTest, PicksTheMarkedRegionOnSingleMatchCluster) {
  SiteClusterFixture fixture(0, deepweb::PageClass::kSingleMatch);
  if (fixture.trees.size() < 5) GTEST_SKIP() << "not enough single pages";
  Phase2Result result = RunPhase2(fixture.trees, {});
  ASSERT_FALSE(result.pagelets.empty());
  int correct = 0;
  for (const auto& pagelet : result.pagelets) {
    const auto& page =
        fixture.sample
            .pages[static_cast<size_t>(
                fixture.indices[static_cast<size_t>(pagelet.page_index)])];
    if (pagelet.node == page.pagelet_node) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / result.pagelets.size(), 0.9);
}

TEST(PageletSelectionTest, AtMostOnePageletPerPageByDefault) {
  SiteClusterFixture fixture;
  Phase2Result result = RunPhase2(fixture.trees, {});
  std::vector<int> counts(fixture.trees.size(), 0);
  for (const auto& pagelet : result.pagelets) {
    ++counts[static_cast<size_t>(pagelet.page_index)];
  }
  for (int c : counts) EXPECT_LE(c, 1);
}

TEST(PageletSelectionTest, PageletAnnotatedWithDynamicDescendants) {
  SiteClusterFixture fixture;
  Phase2Result result = RunPhase2(fixture.trees, {});
  int with_descendants = 0;
  for (const auto& pagelet : result.pagelets) {
    const html::ArenaTree& tree =
        *fixture.trees[static_cast<size_t>(pagelet.page_index)];
    for (html::NodeId node : pagelet.dynamic_descendants) {
      EXPECT_TRUE(tree.IsAncestorOrSelf(pagelet.node, node));
      EXPECT_NE(node, pagelet.node);
    }
    if (!pagelet.dynamic_descendants.empty()) ++with_descendants;
  }
  EXPECT_GT(with_descendants, 0);
}

TEST(PageletSelectionTest, NoDynamicSetsMeansNoPagelets) {
  // Identical pages: every region is static.
  std::vector<html::ArenaTree> storage;
  std::vector<const html::ArenaTree*> trees;
  for (int i = 0; i < 6; ++i) {
    storage.push_back(html::ParseArena(
        "<div><p>always the same words here</p></div>"
        "<table><tr><td>identical row</td></tr></table>"));
  }
  for (const auto& tree : storage) trees.push_back(&tree);
  Phase2Result result = RunPhase2(trees, {});
  EXPECT_TRUE(result.pagelets.empty());
}

TEST(PageletSelectionTest, NeverSelectsPageSizedSubtrees) {
  SiteClusterFixture fixture;
  PageletSelectionOptions options;
  Phase2Result result = RunPhase2(fixture.trees, {});
  for (const auto& pagelet : result.pagelets) {
    const html::ArenaTree& tree =
        *fixture.trees[static_cast<size_t>(pagelet.page_index)];
    double fraction = static_cast<double>(tree.SubtreeSize(pagelet.node)) /
                      tree.node(tree.root()).subtree_size;
    EXPECT_LE(fraction, options.max_page_fraction + 1e-12);
  }
}

TEST(PageletSelectionTest, ScoreIsCoverageInUnitRange) {
  SiteClusterFixture fixture;
  Phase2Result result = RunPhase2(fixture.trees, {});
  for (const auto& pagelet : result.pagelets) {
    EXPECT_GE(pagelet.score, 0.0);
    EXPECT_LE(pagelet.score, 1.0 + 1e-9);
    EXPECT_LE(pagelet.set_similarity, 0.5 + 1e-9);
  }
}

TEST(PageletSelectionTest, MultiplePageletsOptionEmitsSecondRegion) {
  SiteClusterFixture fixture;
  Phase2Options options;
  options.selection.max_pagelets_per_page = 2;
  // Lower the coverage bar so more than one set qualifies; the point here
  // is the per-page cap mechanics, not the default selectivity.
  options.selection.min_dynamic_coverage = 0.1;
  Phase2Result result = RunPhase2(fixture.trees, options);
  std::vector<int> counts(fixture.trees.size(), 0);
  for (const auto& pagelet : result.pagelets) {
    ++counts[static_cast<size_t>(pagelet.page_index)];
  }
  int pages_with_two = 0;
  for (int c : counts) {
    EXPECT_LE(c, 2);
    if (c == 2) ++pages_with_two;
  }
  EXPECT_GT(pages_with_two, 0);
}

TEST(PageletSelectionTest, EmptyInput) {
  EXPECT_TRUE(SelectPagelets({}, {}, {}).empty());
}

}  // namespace
}  // namespace thor::core
