#include "src/core/object_partition.h"

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"

namespace thor::core {
namespace {

TEST(ObjectPartitionTest, SplitsTableRows) {
  html::ArenaTree tree = html::ParseArena(
      "<table><tr><td>first item</td></tr><tr><td>second item</td></tr>"
      "<tr><td>third item</td></tr></table>");
  html::NodeId table = tree.ResolvePath("html/body/table");
  auto objects = PartitionObjects(tree, table);
  ASSERT_EQ(objects.size(), 3u);
  for (const auto& span : objects) {
    ASSERT_EQ(span.parts.size(), 1u);
    EXPECT_EQ(tree.node(span.root()).tag, html::Tag::kTr);
  }
}

TEST(ObjectPartitionTest, SplitsListItems) {
  html::ArenaTree tree = html::ParseArena(
      "<ul><li>alpha one</li><li>beta two</li><li>gamma three</li>"
      "<li>delta four</li></ul>");
  html::NodeId ul = tree.ResolvePath("html/body/ul");
  auto objects = PartitionObjects(tree, ul);
  EXPECT_EQ(objects.size(), 4u);
}

TEST(ObjectPartitionTest, PairsDtDd) {
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt>term a</dt><dd>def a</dd><dt>term b</dt><dd>def b</dd>"
      "<dt>term c</dt><dd>def c</dd></dl>");
  html::NodeId dl = tree.ResolvePath("html/body/dl");
  auto objects = PartitionObjects(tree, dl);
  ASSERT_EQ(objects.size(), 3u);
  for (const auto& span : objects) {
    ASSERT_EQ(span.parts.size(), 2u);
    EXPECT_EQ(tree.node(span.parts[0]).tag, html::Tag::kDt);
    EXPECT_EQ(tree.node(span.parts[1]).tag, html::Tag::kDd);
  }
}

TEST(ObjectPartitionTest, ToleratesTrailingPartialPeriod) {
  // dt/dd pairs with a dangling dt (truncated listing).
  html::ArenaTree tree = html::ParseArena(
      "<dl><dt>a</dt><dd>1</dd><dt>b</dt><dd>2</dd><dt>c</dt></dl>");
  html::NodeId dl = tree.ResolvePath("html/body/dl");
  auto objects = PartitionObjects(tree, dl);
  ASSERT_EQ(objects.size(), 3u);
  EXPECT_EQ(objects.back().parts.size(), 1u);
}

TEST(ObjectPartitionTest, ShapeFallbackForMixedTags) {
  // Repeated div items with a stray heading between groups defeats the
  // exact period but shape grouping finds the divs.
  html::ArenaTree tree = html::ParseArena(
      "<div><h3>section</h3>"
      "<div><a href='/1'>one</a> text</div>"
      "<div><a href='/2'>two</a> text</div>"
      "<div><a href='/3'>three</a> text</div></div>");
  html::NodeId pagelet = tree.ResolvePath("html/body/div");
  auto objects = PartitionObjects(tree, pagelet);
  ASSERT_EQ(objects.size(), 3u);
  for (const auto& span : objects) {
    EXPECT_EQ(tree.node(span.root()).tag, html::Tag::kDiv);
  }
}

TEST(ObjectPartitionTest, DetailRegionIsOneObject) {
  // No repetition below min_objects: the whole pagelet is a single object.
  html::ArenaTree tree = html::ParseArena(
      "<div><h4>unique heading</h4><p>lone description paragraph</p></div>");
  html::NodeId pagelet = tree.ResolvePath("html/body/div");
  ObjectPartitionOptions options;
  options.min_objects = 3;
  auto objects = PartitionObjects(tree, pagelet, {}, options);
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].root(), pagelet);
}

TEST(ObjectPartitionTest, InvalidPageletYieldsNothing) {
  html::ArenaTree tree = html::ParseArena("<p>x</p>");
  EXPECT_TRUE(PartitionObjects(tree, html::kInvalidNode).empty());
}

TEST(ObjectPartitionTest, EmptySeparatorCellsIgnored) {
  html::ArenaTree tree = html::ParseArena(
      "<table><tr><td>a</td></tr><tr><td></td></tr>"
      "<tr><td>b</td></tr></table>");
  html::NodeId table = tree.ResolvePath("html/body/table");
  auto objects = PartitionObjects(tree, table);
  // The empty spacer row carries no content and is not an object.
  EXPECT_EQ(objects.size(), 2u);
}

TEST(ObjectPartitionTest, ObjectTexts) {
  html::ArenaTree tree = html::ParseArena(
      "<ul><li>alpha one</li><li>beta two</li></ul>");
  html::NodeId ul = tree.ResolvePath("html/body/ul");
  auto objects = PartitionObjects(tree, ul);
  auto texts = ObjectTexts(tree, objects);
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "alpha one");
  EXPECT_EQ(texts[1], "beta two");
}

TEST(CollapseFieldRowsTest, DetailPagesCollapseToOneRecord) {
  // Three detail pages: same field labels, different values.
  std::vector<html::ArenaTree> storage;
  for (const char* name : {"Alpha One", "Beta Two", "Gamma Three"}) {
    std::string html = "<table>";
    html += "<tr><td>Title ";
    html += name;
    html += "</td></tr><tr><td>Price $9.99</td></tr>"
            "<tr><td>Year 1999</td></tr></table>";
    storage.push_back(html::ParseArena(html));
  }
  std::vector<PageObjects> pages;
  for (auto& tree : storage) {
    PageObjects page;
    page.tree = &tree;
    page.pagelet = tree.ResolvePath("html/body/table");
    page.objects = PartitionObjects(tree, page.pagelet);
    ASSERT_EQ(page.objects.size(), 3u);  // field rows before validation
    pages.push_back(std::move(page));
  }
  EXPECT_TRUE(CollapseFieldRowObjects(&pages));
  for (const PageObjects& page : pages) {
    ASSERT_EQ(page.objects.size(), 1u);
    EXPECT_EQ(page.objects[0].root(), page.pagelet);
  }
}

TEST(CollapseFieldRowsTest, ResultListsAreLeftAlone) {
  std::vector<html::ArenaTree> storage;
  const char* rows[3][3] = {
      {"Walnut Desk $10", "Maple Chair $20", "Oak Table $30"},
      {"Silver Ring $5", "Gold Band $50", "Brass Pin $2"},
      {"Red Kite $8", "Blue Drone $90", "Green Ball $3"},
  };
  for (int p = 0; p < 3; ++p) {
    std::string html = "<ul>";
    for (int r = 0; r < 3; ++r) {
      html += "<li>";
      html += rows[p][r];
      html += "</li>";
    }
    html += "</ul>";
    storage.push_back(html::ParseArena(html));
  }
  std::vector<PageObjects> pages;
  for (auto& tree : storage) {
    PageObjects page;
    page.tree = &tree;
    page.pagelet = tree.ResolvePath("html/body/ul");
    page.objects = PartitionObjects(tree, page.pagelet);
    pages.push_back(std::move(page));
  }
  EXPECT_FALSE(CollapseFieldRowObjects(&pages));
  for (const PageObjects& page : pages) {
    EXPECT_EQ(page.objects.size(), 3u);
  }
}

// Partitions the pagelet at `pagelet_path` on each page.
std::vector<PageObjects> PartitionPages(
    const std::vector<html::ArenaTree>& storage, const char* pagelet_path) {
  std::vector<PageObjects> pages;
  for (const html::ArenaTree& tree : storage) {
    PageObjects page;
    page.tree = &tree;
    page.pagelet = tree.ResolvePath(pagelet_path);
    page.objects = PartitionObjects(tree, page.pagelet);
    pages.push_back(std::move(page));
  }
  return pages;
}

TEST(CollapseFieldRowsTest, LeadingTokenIsTheFirstContentNode) {
  // Each object holds several content nodes and the first has no space.
  // An object's leading token is the first word of its whole text: on
  // detail pages the label node ("Title"), on result pages the answer
  // node ("Walnut"), never a word of a later node.
  std::vector<html::ArenaTree> details;
  for (const char* name : {"Alpha One", "Beta Two", "Gamma Three"}) {
    std::string html = "<table><tr><td><b>Title</b>";
    html += name;
    html += "</td></tr><tr><td><b>Price</b><i>$9.99</i> each</td></tr>"
            "<tr><td><b>Year</b>1999</td></tr></table>";
    details.push_back(html::ParseArena(html));
  }
  std::vector<PageObjects> detail_pages =
      PartitionPages(details, "html/body/table");
  ASSERT_EQ(detail_pages[0].objects.size(), 3u);
  EXPECT_EQ(details[0].SubtreeText(detail_pages[0].objects[0].root()),
            "Title Alpha One");
  EXPECT_TRUE(CollapseFieldRowObjects(&detail_pages));

  std::vector<html::ArenaTree> results;
  const char* names[3][3] = {{"Walnut", "Maple", "Oak"},
                             {"Silver", "Gold", "Brass"},
                             {"Red", "Blue", "Green"}};
  for (const auto& page_names : names) {
    std::string html = "<ul>";
    for (const char* name : page_names) {
      html += "<li><b>";
      html += name;
      html += "</b>In stock <i>ships</i> today</li>";
    }
    html += "</ul>";
    results.push_back(html::ParseArena(html));
  }
  std::vector<PageObjects> result_pages =
      PartitionPages(results, "html/body/ul");
  ASSERT_EQ(result_pages[0].objects.size(), 3u);
  EXPECT_EQ(results[0].SubtreeText(result_pages[0].objects[0].root()),
            "Walnut In stock ships today");
  EXPECT_FALSE(CollapseFieldRowObjects(&result_pages));
  EXPECT_EQ(result_pages[0].objects.size(), 3u);
}

TEST(CollapseFieldRowsTest, TooFewPagesIsANoOp) {
  html::ArenaTree tree = html::ParseArena(
      "<table><tr><td>Title X</td></tr><tr><td>Price $1</td></tr>"
      "<tr><td>Year 1990</td></tr></table>");
  std::vector<PageObjects> pages;
  PageObjects page;
  page.tree = &tree;
  page.pagelet = tree.ResolvePath("html/body/table");
  page.objects = PartitionObjects(tree, page.pagelet);
  pages.push_back(std::move(page));
  EXPECT_FALSE(CollapseFieldRowObjects(&pages));
  EXPECT_EQ(pages[0].objects.size(), 3u);
}

TEST(ObjectPartitionTest, RecoversGroundTruthObjectsOnSimulatedPages) {
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 4;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  PrecisionRecall total;
  for (const auto& site : fleet) {
    auto sample = deepweb::BuildSiteSample(site, deepweb::ProbeOptions{});
    for (const auto& page : sample.pages) {
      if (page.true_class != deepweb::PageClass::kMultiMatch) continue;
      auto objects = PartitionObjects(page.tree, page.pagelet_node);
      total.Add(EvaluateObjects(page, objects));
    }
  }
  EXPECT_GT(total.truth, 50);
  EXPECT_GT(total.Precision(), 0.95);
  EXPECT_GT(total.Recall(), 0.95);
}

}  // namespace
}  // namespace thor::core
