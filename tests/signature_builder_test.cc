#include "src/core/signature_builder.h"

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

TEST(SignatureBuilderTest, TagCountsOnKnownPage) {
  html::ArenaTree tree = html::ParseArena(
      "<body><table><tr><td>a</td><td>b</td></tr></table><p>c</p></body>");
  ir::SparseVector tags = TagCountVector(tree);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kHtml), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kBody), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kTable), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kTr), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kTd), 2.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kP), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kUl), 0.0);
}

TEST(SignatureBuilderTest, TagCountsForSubtree) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>x</p></div><table><tr><td>y</td></tr></table>");
  html::NodeId table = tree.ResolvePath("html/body/table");
  ASSERT_NE(table, html::kInvalidNode);
  ir::SparseVector tags = TagCountVector(tree, table);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kTable), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kTd), 1.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kDiv), 0.0);
  EXPECT_DOUBLE_EQ(tags.At(html::Tag::kHtml), 0.0);
}

TEST(SignatureBuilderTest, TermVectorStemsAndCounts) {
  html::ArenaTree tree =
      html::ParseArena("<p>running runs</p><p>the guitar</p>");
  ir::Vocabulary vocab;
  ir::SparseVector terms = TermCountVector(tree, &vocab);
  // "running" and "runs" stem to "run" (count 2); "the" is a stopword.
  ir::TermId run = vocab.Find("run");
  ir::TermId guitar = vocab.Find("guitar");
  ASSERT_GE(run, 0);
  ASSERT_GE(guitar, 0);
  EXPECT_DOUBLE_EQ(terms.At(run), 2.0);
  EXPECT_DOUBLE_EQ(terms.At(guitar), 1.0);
  EXPECT_EQ(vocab.Find("the"), -1);
}

TEST(SignatureBuilderTest, SharedVocabularyAlignsPages) {
  html::ArenaTree a = html::ParseArena("<p>guitar solo</p>");
  html::ArenaTree b = html::ParseArena("<p>guitar band</p>");
  ir::Vocabulary vocab;
  ir::SparseVector va = TermCountVector(a, &vocab);
  ir::SparseVector vb = TermCountVector(b, &vocab);
  ir::TermId guitar = vocab.Find("guitar");
  EXPECT_DOUBLE_EQ(va.At(guitar), 1.0);
  EXPECT_DOUBLE_EQ(vb.At(guitar), 1.0);
}

TEST(SignatureBuilderTest, DistinctCounts) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>alpha beta</p><p>alpha gamma delta</p></div>");
  EXPECT_EQ(DistinctTermCount(tree), 4);
  // html, head?, body, div, p  -- head only if synthesized; count distinct
  // tags directly instead of hardcoding.
  EXPECT_EQ(DistinctTagCount(tree),
            static_cast<int>(TagCountVector(tree).size()));
  EXPECT_GE(DistinctTagCount(tree), 4);
}

TEST(SignatureBuilderTest, ScriptContentExcludedFromTerms) {
  html::ArenaTree tree = html::ParseArena(
      "<script>var secretword = 1;</script><p>visible</p>");
  ir::Vocabulary vocab;
  TermCountVector(tree, &vocab);
  EXPECT_EQ(vocab.Find("secretword"), -1);
  EXPECT_GE(vocab.Find("visibl"), 0);
}

}  // namespace
}  // namespace thor::core
