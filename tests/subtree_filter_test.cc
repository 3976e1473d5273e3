#include "src/core/subtree_filter.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

bool Contains(const std::vector<html::NodeId>& candidates,
              html::NodeId node) {
  return std::find(candidates.begin(), candidates.end(), node) !=
         candidates.end();
}

TEST(SubtreeFilterTest, ContentFreeSubtreesExcluded) {
  html::ArenaTree tree = html::ParseArena(
      "<div><img src='a'><br></div><table><tr><td>data</td></tr></table>");
  auto candidates = CandidateSubtrees(tree);
  html::NodeId empty_div = tree.ResolvePath("html/body/div");
  EXPECT_FALSE(Contains(candidates, empty_div));
  // In a single-row table the td is the minimal content-complete subtree;
  // the table and tr above it are wrappers.
  EXPECT_TRUE(
      Contains(candidates, tree.ResolvePath("html/body/table/tr/td")));
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body/table")));
}

TEST(SubtreeFilterTest, PageRootAndBodyNeverCandidates) {
  html::ArenaTree tree = html::ParseArena("<p>content here</p>");
  auto candidates = CandidateSubtrees(tree);
  EXPECT_FALSE(Contains(candidates, tree.root()));
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body")));
}

TEST(SubtreeFilterTest, ExactWrapperExcludedChildKept) {
  // div wraps a table carrying 100% of the content: the div must go,
  // the table must stay.
  html::ArenaTree tree = html::ParseArena(
      "<div><table><tr><td>a</td></tr><tr><td>b</td></tr></table></div>");
  auto candidates = CandidateSubtrees(tree);
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body/div")));
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div/table")));
}

TEST(SubtreeFilterTest, FuzzyWrapperExcludedAtDefaultThreshold) {
  // The heading is tiny next to the list: the div is still a wrapper.
  html::ArenaTree tree = html::ParseArena(
      "<div><h2>hi</h2><ul><li>aaaaaaaaaaaaaaaaaaaaaaaaaaaaa</li>"
      "<li>bbbbbbbbbbbbbbbbbbbbbbbbbbbbb</li>"
      "<li>ccccccccccccccccccccccccccccc</li></ul></div>");
  auto candidates = CandidateSubtrees(tree);
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body/div")));
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div/ul")));
}

TEST(SubtreeFilterTest, BalancedParentIsNotAWrapper) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>first half of the content</p>"
      "<p>second half of the content</p></div>");
  auto candidates = CandidateSubtrees(tree);
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div")));
}

TEST(SubtreeFilterTest, WrapperThresholdConfigurable) {
  html::ArenaTree tree = html::ParseArena(
      "<div><h2>hi</h2><ul><li>aaaaaaaaaaaaaaaaaaaaaaaaaaaaa</li>"
      "<li>bbbbbbbbbbbbbbbbbbbbbbbbbbbbb</li></ul></div>");
  SubtreeFilterOptions strict;
  strict.wrapper_content_fraction = 1.0;  // only exact wrappers dropped
  auto candidates = CandidateSubtrees(tree, strict);
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div")));
}

TEST(SubtreeFilterTest, InlineDominatorDoesNotMakeWrapper) {
  // <dt><a>title text</a></dt>: the <a> holds all content but is inline,
  // so <dt> stays a candidate (and <a> itself is never one).
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt><a href='/x'>some title words</a></dt>"
      "<dd>other description words</dd></dl>");
  auto candidates = CandidateSubtrees(tree);
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/dl/dt")));
  // Inline roots skipped.
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body/dl/dt/a")));
}

TEST(SubtreeFilterTest, BranchingRuleRequiresFanoutOrDirectContent) {
  // <div><ul>...</ul></div> where ul has <30% of content... simpler:
  // a single-child chain without direct content fails rule 3.
  html::ArenaTree tree = html::ParseArena(
      "<div><p>one tiny</p><p>two tiny</p><p>three tiny</p>"
      "<span>packaging wrapper only</span></div>");
  SubtreeFilterOptions options;
  options.skip_inline_roots = false;  // let spans through to test rule 3
  auto candidates = CandidateSubtrees(tree, options);
  // span has one content child -> direct content -> candidate.
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div/span")));
}

TEST(SubtreeFilterTest, MinContentLengthFilters) {
  html::ArenaTree tree =
      html::ParseArena("<div><p>ab</p><p>this one is much longer</p></div>");
  SubtreeFilterOptions options;
  options.min_content_length = 10;
  auto candidates = CandidateSubtrees(tree, options);
  EXPECT_FALSE(Contains(candidates, tree.ResolvePath("html/body/div/p[1]")));
  EXPECT_TRUE(Contains(candidates, tree.ResolvePath("html/body/div/p[2]")));
}

TEST(SubtreeFilterTest, CandidatesAreInDocumentOrder) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>alpha one</p><p>beta two</p></div><ul><li>x y</li>"
      "<li>z w</li></ul>");
  auto candidates = CandidateSubtrees(tree);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(candidates[i - 1], candidates[i]);
  }
}

TEST(SubtreeFilterTest, EveryCandidateHasContent) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>text</p><div><img src='x'></div>"
      "<table><tr><td></td></tr><tr><td>z</td></tr></table></div>");
  for (html::NodeId id : CandidateSubtrees(tree)) {
    EXPECT_GT(tree.node(id).content_length, 0);
    EXPECT_TRUE(tree.node(id).is_tag());
  }
}

}  // namespace
}  // namespace thor::core
