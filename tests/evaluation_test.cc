#include "src/core/evaluation.h"

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

TEST(PrecisionRecallTest, Math) {
  PrecisionRecall pr;
  pr.correct = 8;
  pr.extracted = 10;
  pr.truth = 16;
  EXPECT_DOUBLE_EQ(pr.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(pr.Recall(), 0.5);
}

TEST(PrecisionRecallTest, ZeroDenominators) {
  PrecisionRecall pr;
  EXPECT_DOUBLE_EQ(pr.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(pr.Recall(), 0.0);
}

TEST(PrecisionRecallTest, AddAccumulates) {
  PrecisionRecall a{1, 2, 3};
  PrecisionRecall b{4, 5, 6};
  a.Add(b);
  EXPECT_EQ(a.correct, 5);
  EXPECT_EQ(a.extracted, 7);
  EXPECT_EQ(a.truth, 9);
}

TEST(PageletMatchesTest, ExactMatch) {
  html::ArenaTree tree = html::ParseArena(
      "<div><table><tr><td>content here</td></tr></table></div>");
  html::NodeId table = tree.ResolvePath("html/body/div/table");
  EXPECT_TRUE(PageletMatches(tree, table, table));
}

TEST(PageletMatchesTest, InvalidNodesNeverMatch) {
  html::ArenaTree tree = html::ParseArena("<p>x</p>");
  html::NodeId p = tree.ResolvePath("html/body/p");
  EXPECT_FALSE(PageletMatches(tree, html::kInvalidNode, p));
  EXPECT_FALSE(PageletMatches(tree, p, html::kInvalidNode));
}

TEST(PageletMatchesTest, RelaxedAcceptsTightWrapper) {
  // The extracted div contains only the truth table (same content).
  html::ArenaTree tree = html::ParseArena(
      "<div><table><tr><td>the full answer content</td></tr></table></div>");
  html::NodeId div = tree.ResolvePath("html/body/div");
  html::NodeId table = tree.ResolvePath("html/body/div/table");
  EXPECT_TRUE(PageletMatches(tree, div, table));
  EXPECT_TRUE(PageletMatches(tree, table, div));
}

TEST(PageletMatchesTest, RelaxedRejectsLooseWrapper) {
  // The wrapper adds lots of extra content beyond the truth region.
  html::ArenaTree tree = html::ParseArena(
      "<div><p>plenty of additional boilerplate text that dwarfs it</p>"
      "<table><tr><td>answer</td></tr></table></div>");
  html::NodeId div = tree.ResolvePath("html/body/div");
  html::NodeId table = tree.ResolvePath("html/body/div/table");
  EXPECT_FALSE(PageletMatches(tree, div, table));
}

TEST(PageletMatchesTest, RelaxedRejectsSiblings) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>same size text</p></div><div><p>same size text</p></div>");
  html::NodeId first = tree.ResolvePath("html/body/div[1]");
  html::NodeId second = tree.ResolvePath("html/body/div[2]");
  EXPECT_FALSE(PageletMatches(tree, first, second));
}

TEST(PageletMatchesTest, StrictModeRequiresExactNode) {
  html::ArenaTree tree = html::ParseArena(
      "<div><table><tr><td>answer content</td></tr></table></div>");
  html::NodeId div = tree.ResolvePath("html/body/div");
  html::NodeId table = tree.ResolvePath("html/body/div/table");
  EvalOptions strict;
  strict.relaxed = false;
  EXPECT_FALSE(PageletMatches(tree, div, table, strict));
  EXPECT_TRUE(PageletMatches(tree, table, table, strict));
}

TEST(PageletMatchesTest, ToleranceIsConfigurable) {
  html::ArenaTree tree = html::ParseArena(
      "<div><h2>head</h2><table><tr><td>the main answer body text"
      "</td></tr></table></div>");
  html::NodeId div = tree.ResolvePath("html/body/div");
  html::NodeId table = tree.ResolvePath("html/body/div/table");
  EvalOptions tight;
  tight.content_tolerance = 0.01;
  EXPECT_FALSE(PageletMatches(tree, div, table, tight));
  EvalOptions loose;
  loose.content_tolerance = 0.9;
  EXPECT_TRUE(PageletMatches(tree, div, table, loose));
}

}  // namespace
}  // namespace thor::core
