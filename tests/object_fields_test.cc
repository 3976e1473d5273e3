#include "src/core/object_fields.h"

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

ObjectSpan SpanOf(const html::ArenaTree& tree, std::string_view path) {
  ObjectSpan span;
  span.parts.push_back(tree.ResolvePath(path));
  return span;
}

TEST(ObjectFieldsTest, TitleFromAnchor) {
  html::ArenaTree tree = html::ParseArena(
      "<li><a href='/x'>Garden Light Kit</a> plain trailing text</li>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/li"));
  ASSERT_GE(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[0].value, "Garden Light Kit");
  EXPECT_EQ(fields[1].type, FieldType::kText);
}

TEST(ObjectFieldsTest, LabeledPairs) {
  html::ArenaTree tree = html::ParseArena(
      "<div><i>Artist: The Midnight Owls</i><span>Label: Blue Note</span>"
      "</div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kLabeled);
  EXPECT_EQ(fields[0].label, "Artist");
  EXPECT_EQ(fields[0].value, "The Midnight Owls");
  EXPECT_EQ(fields[1].label, "Label");
  EXPECT_EQ(fields[1].value, "Blue Note");
}

TEST(ObjectFieldsTest, PriceParsing) {
  html::ArenaTree tree =
      html::ParseArena("<div><span>$123.45</span></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].type, FieldType::kPrice);
  EXPECT_DOUBLE_EQ(fields[0].number, 123.45);
}

TEST(ObjectFieldsTest, RatingParsing) {
  html::ArenaTree tree =
      html::ParseArena("<div><em>4.2 stars</em></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].type, FieldType::kRating);
  EXPECT_DOUBLE_EQ(fields[0].number, 4.2);
}

TEST(ObjectFieldsTest, YearParsing) {
  html::ArenaTree tree =
      html::ParseArena("<div><small>electronics (1998)</small></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].type, FieldType::kYear);
  EXPECT_DOUBLE_EQ(fields[0].number, 1998.0);
}

TEST(ObjectFieldsTest, YearRejectsNonYearNumbers) {
  html::ArenaTree tree =
      html::ParseArena("<div><span>item 123456 code 17</span></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 1u);
  // 123456 has digit neighbors on both sides of any 4-digit window; 17 is
  // short — no year. (It does become the fallback title.)
  EXPECT_NE(fields[0].type, FieldType::kYear);
}

TEST(ObjectFieldsTest, FallbackTitleWhenNothingEmphasized) {
  html::ArenaTree tree = html::ParseArena(
      "<div><span>Plain Product Name</span><span>$5.00</span></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[1].type, FieldType::kPrice);
}

TEST(ObjectFieldsTest, OnlyFirstEmphasizedLeafIsTitle) {
  html::ArenaTree tree = html::ParseArena(
      "<li><b>Real Title</b> <b>Bold But Later</b></li>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/li"));
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[1].type, FieldType::kText);
}

TEST(ObjectFieldsTest, DtDdSpanTreatsDtAsTitle) {
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt><a href='/i'>Album Name</a></dt>"
      "<dd>Artist: Silver Canyon, $9.99</dd></dl>");
  ObjectSpan span;
  span.parts.push_back(tree.ResolvePath("html/body/dl/dt"));
  span.parts.push_back(tree.ResolvePath("html/body/dl/dd"));
  auto fields = PartitionFields(tree, span);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[0].value, "Album Name");
  EXPECT_EQ(fields[1].type, FieldType::kLabeled);
  EXPECT_EQ(fields[1].label, "Artist");
}

TEST(ObjectFieldsTest, LongColonTextIsNotALabel) {
  html::ArenaTree tree = html::ParseArena(
      "<div><p>this sentence happens to contain a colon somewhere in the "
      "middle of prose: and keeps going</p></div>");
  auto fields = PartitionFields(tree, SpanOf(tree, "html/body/div"));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_NE(fields[0].type, FieldType::kLabeled);
}

TEST(ObjectFieldsTest, PartitionAllFields) {
  html::ArenaTree tree = html::ParseArena(
      "<ul><li><b>One</b> $1.00</li><li><b>Two</b> $2.00</li></ul>");
  html::NodeId ul = tree.ResolvePath("html/body/ul");
  auto objects = PartitionObjects(tree, ul);
  auto all = PartitionAllFields(tree, objects);
  ASSERT_EQ(all.size(), 2u);
  for (const auto& fields : all) {
    ASSERT_EQ(fields.size(), 2u);
    EXPECT_EQ(fields[0].type, FieldType::kTitle);
    EXPECT_EQ(fields[1].type, FieldType::kPrice);
  }
}

TEST(ObjectFieldsTest, DtLabelsPairWithDdValues) {
  // Detail-page definition list: plain <dt> leaves label the <dd> values.
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt>Title</dt><dd>Garden Light Kit</dd>"
      "<dt>Price</dt><dd>$34.50</dd>"
      "<dt>Year</dt><dd>1999</dd></dl>");
  ObjectSpan span = SpanOf(tree, "html/body/dl");
  auto fields = PartitionFields(tree, span);
  ASSERT_EQ(fields.size(), 3u);
  // The Title-labeled field is promoted to the record title.
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[0].label, "Title");
  EXPECT_EQ(fields[0].value, "Garden Light Kit");
  EXPECT_EQ(fields[1].type, FieldType::kLabeled);
  EXPECT_EQ(fields[1].label, "Price");
  EXPECT_DOUBLE_EQ(fields[1].number, 34.5);
  EXPECT_EQ(fields[2].label, "Year");
  EXPECT_DOUBLE_EQ(fields[2].number, 1999.0);
}

TEST(ObjectFieldsTest, ThLabelsPairWithTdValues) {
  html::ArenaTree tree = html::ParseArena(
      "<table><tr><th>Author</th><td>Eleanor Whitfield</td></tr>"
      "<tr><th>Rating</th><td>4.5 stars</td></tr></table>");
  ObjectSpan span = SpanOf(tree, "html/body/table");
  auto fields = PartitionFields(tree, span);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kLabeled);
  EXPECT_EQ(fields[0].label, "Author");
  EXPECT_EQ(fields[0].value, "Eleanor Whitfield");
  EXPECT_EQ(fields[1].label, "Rating");
  EXPECT_DOUBLE_EQ(fields[1].number, 4.5);
}

TEST(ObjectFieldsTest, LinkedDtIsATitleNotALabel) {
  // Result-listing dl: the dt holds the record title link, not a label.
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt><a href='/i'>Walnut Desk</a></dt>"
      "<dd>Brand: Acme, $99.00</dd></dl>");
  ObjectSpan span;
  span.parts.push_back(tree.ResolvePath("html/body/dl/dt"));
  span.parts.push_back(tree.ResolvePath("html/body/dl/dd"));
  auto fields = PartitionFields(tree, span);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].type, FieldType::kTitle);
  EXPECT_EQ(fields[0].value, "Walnut Desk");
}

TEST(ObjectFieldsTest, DanglingLabelBecomesText) {
  html::ArenaTree tree =
      html::ParseArena("<dl><dt>Orphan</dt></dl>");
  ObjectSpan span = SpanOf(tree, "html/body/dl");
  auto fields = PartitionFields(tree, span);
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0].value, "Orphan");
}

TEST(ObjectFieldsTest, FieldTypeNames) {
  EXPECT_STREQ(FieldTypeName(FieldType::kTitle), "title");
  EXPECT_STREQ(FieldTypeName(FieldType::kPrice), "price");
  EXPECT_STREQ(FieldTypeName(FieldType::kYear), "year");
  EXPECT_STREQ(FieldTypeName(FieldType::kRating), "rating");
  EXPECT_STREQ(FieldTypeName(FieldType::kLabeled), "labeled");
  EXPECT_STREQ(FieldTypeName(FieldType::kText), "text");
}

}  // namespace
}  // namespace thor::core
