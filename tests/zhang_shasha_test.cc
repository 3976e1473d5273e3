#include "src/treedist/zhang_shasha.h"

#include <gtest/gtest.h>

#include "tests/oracle/parser.h"

namespace thor::treedist {
namespace {

OrderedTree FromHtml(const char* html) {
  html::TagTree tree = html::ParseHtml(html);
  return OrderedTree::FromTree(tree, tree.root());
}

TEST(OrderedTreeTest, PostorderShape) {
  html::TagTree tree;
  html::NodeId body = tree.AddTag(tree.root(), html::Tag::kBody);
  tree.AddTag(body, html::Tag::kDiv);
  tree.AddTag(body, html::Tag::kP);
  tree.FinalizeDerived();
  OrderedTree ot = OrderedTree::FromTree(tree, tree.root());
  ASSERT_EQ(ot.size(), 4);
  // Postorder: div, p, body, html.
  EXPECT_EQ(ot.labels[0], html::Tag::kDiv);
  EXPECT_EQ(ot.labels[1], html::Tag::kP);
  EXPECT_EQ(ot.labels[2], html::Tag::kBody);
  EXPECT_EQ(ot.labels[3], html::Tag::kHtml);
  // Leftmost leaves: div->0, p->1, body->0, html->0.
  EXPECT_EQ(ot.leftmost_leaf[2], 0);
  EXPECT_EQ(ot.leftmost_leaf[3], 0);
  // Keyroots always include the overall root (last node).
  EXPECT_EQ(ot.keyroots.back(), 3);
}

TEST(TreeEditDistanceTest, IdenticalTreesAreZero) {
  OrderedTree a = FromHtml("<div><p>x</p><p>y</p></div>");
  OrderedTree b = FromHtml("<div><p>x</p><p>y</p></div>");
  EXPECT_EQ(TreeEditDistance(a, b), 0);
}

TEST(TreeEditDistanceTest, SingleRelabel) {
  OrderedTree a = FromHtml("<div><p>x</p></div>");
  OrderedTree b = FromHtml("<div><span>x</span></div>");
  EXPECT_EQ(TreeEditDistance(a, b), 1);
}

TEST(TreeEditDistanceTest, SingleInsertion) {
  OrderedTree a = FromHtml("<div><p>x</p></div>");
  OrderedTree b = FromHtml("<div><p>x</p><br></div>");
  EXPECT_EQ(TreeEditDistance(a, b), 1);
}

TEST(TreeEditDistanceTest, EmptyTreeCosts) {
  OrderedTree empty;
  OrderedTree a = FromHtml("<div><p>x</p></div>");
  EXPECT_EQ(TreeEditDistance(empty, a), a.size());
  EXPECT_EQ(TreeEditDistance(a, empty), a.size());
  EXPECT_EQ(TreeEditDistance(empty, empty), 0);
}

TEST(TreeEditDistanceTest, SymmetricOnSamples) {
  const char* samples[] = {
      "<div><ul><li>a</li><li>b</li></ul></div>",
      "<table><tr><td>a</td><td>b</td></tr></table>",
      "<div><p>a</p><div><span>b</span></div></div>",
  };
  for (const char* x : samples) {
    for (const char* y : samples) {
      OrderedTree a = FromHtml(x);
      OrderedTree b = FromHtml(y);
      EXPECT_EQ(TreeEditDistance(a, b), TreeEditDistance(b, a));
    }
  }
}

TEST(TreeEditDistanceTest, BoundedByNodeSum) {
  OrderedTree a = FromHtml("<ul><li>1</li><li>2</li></ul>");
  OrderedTree b = FromHtml("<table><tr><td>x</td></tr></table>");
  int d = TreeEditDistance(a, b);
  EXPECT_LE(d, a.size() + b.size());
  EXPECT_GE(d, std::abs(a.size() - b.size()));
}

TEST(TreeEditDistanceTest, StructureSensitive) {
  // Same multiset of labels, different shape: nested vs flat.
  OrderedTree flat = FromHtml("<div></div><div></div><div></div>");
  OrderedTree nested = FromHtml("<div><div><div></div></div></div>");
  EXPECT_GT(TreeEditDistance(flat, nested), 0);
}

TEST(TreeEditDistanceTest, SimilarTemplatesCloserThanDifferentOnes) {
  // Two result pages from the same "template" (row count differs) are
  // closer than a results page vs a message page.
  OrderedTree results_small = FromHtml(
      "<table><tr><td>a</td></tr><tr><td>b</td></tr></table>");
  OrderedTree results_large = FromHtml(
      "<table><tr><td>a</td></tr><tr><td>b</td></tr>"
      "<tr><td>c</td></tr></table>");
  OrderedTree message = FromHtml("<div><h2>No results</h2><p>x</p></div>");
  EXPECT_LT(TreeEditDistance(results_small, results_large),
            TreeEditDistance(results_small, message));
}

TEST(TreeEditDistanceTest, NormalizedInUnitRange) {
  OrderedTree a = FromHtml("<div><p>a</p></div>");
  OrderedTree b = FromHtml("<table><tr><td>b</td></tr></table>");
  double d = NormalizedTreeEditDistance(a, b);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0 + 1e-12);
  EXPECT_DOUBLE_EQ(NormalizedTreeEditDistance(a, a), 0.0);
}

TEST(TreeEditDistanceTest, ClassicZhangShashaExample) {
  // Build the classic (f (d (a c(b)) e)) vs (f (c (d (a b)) e)) example
  // with tag stand-ins: f=div d=table a=tr c=td b=p e=ul.
  html::TagTree t1;
  {
    auto f = t1.AddTag(t1.root(), html::Tag::kDiv);
    auto d = t1.AddTag(f, html::Tag::kTable);
    auto a = t1.AddTag(d, html::Tag::kTr);
    (void)a;
    auto c = t1.AddTag(d, html::Tag::kTd);
    t1.AddTag(c, html::Tag::kP);
    t1.AddTag(f, html::Tag::kUl);
    t1.FinalizeDerived();
  }
  html::TagTree t2;
  {
    auto f = t2.AddTag(t2.root(), html::Tag::kDiv);
    auto c = t2.AddTag(f, html::Tag::kTd);
    auto d = t2.AddTag(c, html::Tag::kTable);
    t2.AddTag(d, html::Tag::kTr);
    t2.AddTag(d, html::Tag::kP);
    t2.AddTag(f, html::Tag::kUl);
    t2.FinalizeDerived();
  }
  // Subtrees below the shared synthetic html root.
  OrderedTree a = OrderedTree::FromTree(t1, t1.node(t1.root()).children[0]);
  OrderedTree b = OrderedTree::FromTree(t2, t2.node(t2.root()).children[0]);
  // Known distance for the classic example is 2 (move c, move b).
  EXPECT_EQ(TreeEditDistance(a, b), 2);
}

}  // namespace
}  // namespace thor::treedist
