#include "src/deepweb/site.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "tests/oracle/parser.h"

namespace thor::deepweb {
namespace {

SiteConfig TestConfig(uint64_t seed = 11) {
  SiteConfig config;
  config.site_id = 1;
  config.domain = Domain::kEcommerce;
  config.seed = seed;
  config.catalog_size = 500;
  config.error_rate = 0.0;  // deterministic dispatch for most tests
  return config;
}

TEST(SiteTest, DeterministicResponses) {
  DeepWebSite a(TestConfig());
  DeepWebSite b(TestConfig());
  for (const char* q : {"music", "zzzz", "table", "light"}) {
    auto ra = a.Query(q);
    auto rb = b.Query(q);
    EXPECT_EQ(ra.html, rb.html);
    EXPECT_EQ(ra.page_class, rb.page_class);
    EXPECT_EQ(ra.url, rb.url);
  }
}

TEST(SiteTest, UrlEmbedsQuery) {
  DeepWebSite site(TestConfig());
  auto response = site.Query("camera");
  EXPECT_NE(response.url.find("query=camera"), std::string::npos);
  EXPECT_NE(response.url.find("site1"), std::string::npos);
}

TEST(SiteTest, DispatchMatchesCatalog) {
  DeepWebSite site(TestConfig());
  const auto& catalog = site.catalog();
  int multi = 0;
  int single = 0;
  int none = 0;
  for (const char* q : {"apple", "bird", "light", "zqxv", "river", "stone",
                        "engine", "copper", "winter", "guitar"}) {
    auto response = site.Query(q);
    size_t matches = catalog.Search(q).size();
    EXPECT_EQ(response.num_matches, static_cast<int>(matches));
    if (matches == 0) {
      EXPECT_EQ(response.page_class, PageClass::kNoMatch);
      ++none;
    } else if (matches == 1) {
      EXPECT_EQ(response.page_class, PageClass::kSingleMatch);
      ++single;
    } else {
      EXPECT_EQ(response.page_class, PageClass::kMultiMatch);
      ++multi;
    }
  }
  EXPECT_EQ(multi + single + none, 10);
}

TEST(SiteTest, AnswerPagesCarryPageletMarker) {
  DeepWebSite site(TestConfig());
  int checked = 0;
  for (const char* word : {"river", "light", "apple", "stone", "zzqqx"}) {
    auto response = site.Query(word);
    bool has_marker =
        response.html.find("data-qa=\"pagelet\"") != std::string::npos;
    EXPECT_EQ(has_marker, ClassHasPagelet(response.page_class)) << word;
    ++checked;
  }
  EXPECT_EQ(checked, 5);
}

TEST(SiteTest, MultiMatchListsCappedRecords) {
  DeepWebSite site(TestConfig());
  // Category words match many records and must cap at the style limit.
  const char* category = "electronics";
  auto response = site.Query(category);
  if (response.page_class == PageClass::kMultiMatch) {
    size_t object_count = 0;
    size_t pos = 0;
    while ((pos = response.html.find("data-qa=\"object\"", pos)) !=
           std::string::npos) {
      ++object_count;
      pos += 1;
    }
    EXPECT_GE(object_count, 2u);
    EXPECT_LE(object_count,
              static_cast<size_t>(site.style().max_results_per_page));
  }
}

TEST(SiteTest, ErrorRateProducesErrorPages) {
  SiteConfig config = TestConfig();
  config.error_rate = 1.0;
  DeepWebSite site(config);
  auto response = site.Query("anything");
  EXPECT_EQ(response.page_class, PageClass::kError);
  EXPECT_NE(response.html.find("Server Error"), std::string::npos);
  EXPECT_EQ(response.html.find("data-qa"), std::string::npos);
}

TEST(SiteTest, AdBlockRotatesAcrossQueriesButNotWithinOne) {
  SiteConfig config = TestConfig(77);
  DeepWebSite site(config);
  if (!site.style().has_ad_block) GTEST_SKIP() << "style has no ad block";
  auto r1 = site.Query("light");
  auto r1_again = site.Query("light");
  EXPECT_EQ(r1.html, r1_again.html);
}

TEST(SiteTest, PagesParseIntoValidTrees) {
  DeepWebSite site(TestConfig());
  for (const char* q : {"river", "zzqqx", "apple"}) {
    auto response = site.Query(q);
    html::TagTree tree = html::ParseHtml(response.html);
    EXPECT_GT(tree.node_count(), 10);
    EXPECT_FALSE(tree.SubtreeText(tree.root()).empty());
  }
}

TEST(SiteGeneratorTest, FleetConfigsAreDiverse) {
  FleetOptions options;
  options.num_sites = 12;
  auto configs = GenerateFleetConfigs(options);
  ASSERT_EQ(configs.size(), 12u);
  std::set<uint64_t> seeds;
  std::set<int> domains;
  for (const auto& config : configs) {
    seeds.insert(config.seed);
    domains.insert(static_cast<int>(config.domain));
    EXPECT_GE(config.catalog_size, options.min_catalog_size);
    EXPECT_LE(config.catalog_size, options.max_catalog_size);
  }
  EXPECT_EQ(seeds.size(), 12u);
  EXPECT_EQ(domains.size(), 3u);
}

TEST(SiteGeneratorTest, FleetTemplatesDiffer) {
  FleetOptions options;
  options.num_sites = 8;
  auto fleet = GenerateSiteFleet(options);
  // At least two different results markups across the fleet.
  std::set<int> markups;
  for (const auto& site : fleet) {
    markups.insert(static_cast<int>(site.style().results));
  }
  EXPECT_GE(markups.size(), 2u);
}

TEST(SiteGeneratorTest, FleetIsDeterministic) {
  FleetOptions options;
  options.num_sites = 3;
  auto a = GenerateSiteFleet(options);
  auto b = GenerateSiteFleet(options);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Query("light").html, b[i].Query("light").html);
  }
}

TEST(SiteTest, DropOptionalEndTagsPreservesTreeStructure) {
  // The parser's implied-end-tag recovery must rebuild an equivalent tree
  // from sloppy markup for every page the simulator can emit.
  deepweb::FleetOptions options;
  options.num_sites = 4;
  auto fleet = deepweb::GenerateSiteFleet(options);
  int compared = 0;
  for (const auto& site : fleet) {
    for (const char* q : {"river", "light", "electronics", "zzqqx"}) {
      auto response = site.Query(q);
      std::string strict = response.html;
      std::string sloppy = DropOptionalEndTags(strict);
      html::TagTree a = html::ParseHtml(strict);
      html::TagTree b = html::ParseHtml(sloppy);
      EXPECT_EQ(a.SubtreeSize(a.root()), b.SubtreeSize(b.root()))
          << site.config().site_id << " " << q;
      EXPECT_EQ(a.SubtreeText(a.root()), b.SubtreeText(b.root()));
      EXPECT_EQ(a.MaxFanout(), b.MaxFanout());
      ++compared;
    }
  }
  EXPECT_EQ(compared, 16);
}

TEST(SiteTest, SloppySitesStillCarryMarkers) {
  // Find a sloppy-markup site and confirm ground truth survives.
  deepweb::FleetOptions options;
  options.num_sites = 12;
  auto fleet = deepweb::GenerateSiteFleet(options);
  bool found_sloppy = false;
  for (const auto& site : fleet) {
    if (!site.style().sloppy_markup) continue;
    found_sloppy = true;
    auto response = site.Query("electronics");
    if (!ClassHasPagelet(response.page_class)) continue;
    EXPECT_EQ(response.html.find("</li>"), std::string::npos);
    EXPECT_EQ(response.html.find("</td>"), std::string::npos);
    auto page = LabelPageChecked(response);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_NE(page->pagelet_node, html::kInvalidNode);
  }
  EXPECT_TRUE(found_sloppy);
}

TEST(SiteTest, PageClassNames) {
  EXPECT_STREQ(PageClassName(PageClass::kMultiMatch), "multi-match");
  EXPECT_STREQ(PageClassName(PageClass::kSingleMatch), "single-match");
  EXPECT_STREQ(PageClassName(PageClass::kNoMatch), "no-match");
  EXPECT_STREQ(PageClassName(PageClass::kError), "error");
  EXPECT_TRUE(ClassHasPagelet(PageClass::kMultiMatch));
  EXPECT_TRUE(ClassHasPagelet(PageClass::kSingleMatch));
  EXPECT_FALSE(ClassHasPagelet(PageClass::kNoMatch));
  EXPECT_FALSE(ClassHasPagelet(PageClass::kError));
}

}  // namespace
}  // namespace thor::deepweb
