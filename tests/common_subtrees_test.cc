#include "src/core/common_subtrees.h"

#include <gtest/gtest.h>

#include "src/core/subtree_filter.h"
#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

// Renders a fake template page with a nav, a results list of `rows` rows,
// and a footer. Same template, varying answer content.
std::string TemplatePage(int rows, const std::string& salt) {
  std::string html =
      "<div><ul><li><a href='/home'>home</a></li>"
      "<li><a href='/browse'>browse</a></li></ul></div>"
      "<table>";
  for (int i = 0; i < rows; ++i) {
    html += "<tr><td>result " + salt + " number " + std::to_string(i) +
            " with words</td></tr>";
  }
  html += "</table><div><a href='/about'>about</a> legal text here</div>";
  return html;
}

TEST(ShapeQuadTest, FieldsMatchTree) {
  html::ArenaTree tree = html::ParseArena(TemplatePage(3, "x"));
  html::NodeId table = tree.ResolvePath("html/body/table");
  ASSERT_NE(table, html::kInvalidNode);
  ShapeQuad quad = MakeShapeQuad(tree, table);
  EXPECT_EQ(quad.fanout, 3);
  EXPECT_EQ(quad.depth, tree.Depth(table));
  EXPECT_EQ(quad.num_nodes, tree.SubtreeSize(table));
  EXPECT_EQ(quad.path_symbols.size(), 3u);  // html/body/table
}

TEST(ShapeDistanceTest, IdenticalIsZero) {
  html::ArenaTree tree = html::ParseArena(TemplatePage(3, "x"));
  ShapeQuad quad = MakeShapeQuad(tree, tree.ResolvePath("html/body/table"));
  EXPECT_DOUBLE_EQ(ShapeDistance(quad, quad), 0.0);
}

TEST(ShapeDistanceTest, BoundedAndSymmetric) {
  html::ArenaTree a = html::ParseArena(TemplatePage(2, "a"));
  html::ArenaTree b = html::ParseArena(TemplatePage(9, "b"));
  std::vector<ShapeQuad> quads;
  for (html::NodeId id : CandidateSubtrees(a)) {
    quads.push_back(MakeShapeQuad(a, id));
  }
  for (html::NodeId id : CandidateSubtrees(b)) {
    quads.push_back(MakeShapeQuad(b, id));
  }
  for (const auto& x : quads) {
    for (const auto& y : quads) {
      double d = ShapeDistance(x, y);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0 + 1e-12);
      EXPECT_NEAR(d, ShapeDistance(y, x), 1e-12);
    }
  }
}

TEST(ShapeDistanceTest, SingleFeatureWeights) {
  ShapeQuad a{"abc", 4, 3, 20};
  ShapeQuad b{"abc", 8, 3, 20};
  EXPECT_DOUBLE_EQ(ShapeDistance(a, b, ShapeDistanceWeights::PathOnly()),
                   0.0);
  EXPECT_DOUBLE_EQ(ShapeDistance(a, b, ShapeDistanceWeights::FanoutOnly()),
                   0.5);
  EXPECT_DOUBLE_EQ(ShapeDistance(a, b, ShapeDistanceWeights::DepthOnly()),
                   0.0);
  EXPECT_DOUBLE_EQ(ShapeDistance(a, b, ShapeDistanceWeights::NodesOnly()),
                   0.0);
  // Equal weights: only the fanout term contributes.
  EXPECT_DOUBLE_EQ(ShapeDistance(a, b, ShapeDistanceWeights::All()), 0.125);
}

TEST(ShapeDistanceTest, PathTermIsNormalizedEditDistance) {
  ShapeQuad a{"he", 1, 1, 1};
  ShapeQuad b{"het", 1, 1, 1};
  // Paper example: edit distance 1 over max length 3.
  EXPECT_NEAR(ShapeDistance(a, b, ShapeDistanceWeights::PathOnly()),
              1.0 / 3.0, 1e-12);
}

class CommonSubtreeFixture : public ::testing::Test {
 protected:
  void Build(int num_pages) {
    pages_.clear();
    for (int i = 0; i < num_pages; ++i) {
      pages_.push_back(
          html::ParseArena(TemplatePage(2 + i % 7, "page" + std::to_string(i))));
    }
    trees_.clear();
    candidates_.clear();
    for (const auto& tree : pages_) {
      trees_.push_back(&tree);
      candidates_.push_back(CandidateSubtrees(tree));
    }
  }

  std::vector<html::ArenaTree> pages_;
  std::vector<const html::ArenaTree*> trees_;
  std::vector<std::vector<html::NodeId>> candidates_;
};

TEST_F(CommonSubtreeFixture, GroupsCounterpartRegions) {
  Build(10);
  auto sets = FindCommonSubtreeSets(trees_, candidates_, {});
  // Find the set whose prototype is the results table.
  bool found_table_set = false;
  for (const auto& set : sets) {
    ASSERT_FALSE(set.members.empty());
    const auto& first = set.members[0];
    const html::ArenaTree& tree = *trees_[static_cast<size_t>(first.page_index)];
    if (tree.node(first.node).tag == html::Tag::kTable) {
      found_table_set = true;
      // Every page's table must be in this set despite row-count variance.
      EXPECT_EQ(set.members.size(), trees_.size());
      for (const auto& ref : set.members) {
        EXPECT_EQ(trees_[static_cast<size_t>(ref.page_index)]
                      ->node(ref.node)
                      .tag,
                  html::Tag::kTable);
      }
    }
  }
  EXPECT_TRUE(found_table_set);
}

TEST_F(CommonSubtreeFixture, AtMostOneSubtreePerPagePerSet) {
  Build(8);
  auto sets = FindCommonSubtreeSets(trees_, candidates_, {});
  for (const auto& set : sets) {
    std::vector<int> seen_pages;
    for (const auto& ref : set.members) {
      EXPECT_EQ(std::count(seen_pages.begin(), seen_pages.end(),
                           ref.page_index),
                0);
      seen_pages.push_back(ref.page_index);
    }
  }
}

TEST_F(CommonSubtreeFixture, OneSetPerPrototypeCandidate) {
  Build(5);
  CommonSubtreeOptions options;
  options.prototype_page = 0;
  auto sets = FindCommonSubtreeSets(trees_, candidates_, options);
  EXPECT_EQ(sets.size(), candidates_[0].size());
  for (const auto& set : sets) {
    EXPECT_EQ(set.members[0].page_index, 0);
  }
}

TEST_F(CommonSubtreeFixture, MembersRespectDistanceCutoff) {
  Build(6);
  CommonSubtreeOptions options;
  options.prototype_page = 0;
  options.exact_path_first = false;
  options.max_match_distance = 0.0;  // only identical shapes may join
  auto sets = FindCommonSubtreeSets(trees_, candidates_, options);
  for (const auto& set : sets) {
    ShapeQuad proto = MakeShapeQuad(
        *trees_[static_cast<size_t>(set.members[0].page_index)],
        set.members[0].node);
    for (const auto& ref : set.members) {
      ShapeQuad quad = MakeShapeQuad(
          *trees_[static_cast<size_t>(ref.page_index)], ref.node);
      EXPECT_NEAR(ShapeDistance(proto, quad), 0.0, 1e-12);
    }
  }
}

TEST_F(CommonSubtreeFixture, AutoPrototypeAnchorsOnContentRichPage) {
  Build(6);
  CommonSubtreeOptions options;  // prototype_page = -1 (auto)
  auto sets = FindCommonSubtreeSets(trees_, candidates_, options);
  ASSERT_FALSE(sets.empty());
  int proto_page = sets[0].members[0].page_index;
  // The auto prototype is never the smallest page.
  int min_content = trees_[0]->node(trees_[0]->root()).content_length;
  for (const auto* tree : trees_) {
    min_content =
        std::min(min_content, tree->node(tree->root()).content_length);
  }
  EXPECT_GT(trees_[static_cast<size_t>(proto_page)]
                ->node(trees_[static_cast<size_t>(proto_page)]->root())
                .content_length,
            min_content - 1);
}

TEST(CommonSubtreesTest, EmptyInputsGiveEmptyOutput) {
  EXPECT_TRUE(FindCommonSubtreeSets({}, {}, {}).empty());
}

}  // namespace
}  // namespace thor::core
