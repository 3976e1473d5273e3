#include "src/core/template_registry.h"

#include <string>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"

namespace thor::core {
namespace {

/// Labels one fresh response; no simulator page fails validation.
deepweb::LabeledPage Label(const deepweb::QueryResponse& response) {
  auto page = deepweb::LabelPageChecked(response);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  return page.ok() ? std::move(*page) : deepweb::LabeledPage{};
}

struct Fixture {
  deepweb::DeepWebSite site;
  deepweb::SiteSample train;
  std::vector<Page> train_pages;
  TemplateRegistry registry;

  static Fixture Make(int site_id = 0) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = site_id + 1;
    auto fleet = deepweb::GenerateSiteFleet(fleet_options);
    Fixture fixture{std::move(fleet[static_cast<size_t>(site_id)]), {}, {},
                    {}};
    deepweb::ProbeOptions probe;
    fixture.train = deepweb::BuildSiteSample(fixture.site, probe);
    fixture.train_pages = ToPages(fixture.train);
    auto result = RunThor(fixture.train_pages, ThorOptions{});
    EXPECT_TRUE(result.ok());
    fixture.registry =
        TemplateRegistry::Learn(fixture.train_pages, *result);
    return fixture;
  }
};

TEST(TemplateRegistryTest, LearnsTemplatesFromARun) {
  Fixture fixture = Fixture::Make();
  ASSERT_FALSE(fixture.registry.empty());
  for (const auto& tmpl : fixture.registry.templates()) {
    EXPECT_FALSE(tmpl.path_symbols.empty());
    EXPECT_GT(tmpl.support, 0);
    EXPECT_GE(tmpl.max_distance, 0.15);
    EXPECT_LE(tmpl.max_distance, 0.45);
  }
  // Strongest template first.
  const auto& templates = fixture.registry.templates();
  for (size_t i = 1; i < templates.size(); ++i) {
    EXPECT_GE(templates[i - 1].support, templates[i].support);
  }
}

TEST(TemplateRegistryTest, LocatesPageletsOnUnseenAnswerPages) {
  Fixture fixture = Fixture::Make();
  // Fresh queries the probe plan never issued.
  const char* fresh[] = {"window", "garden", "silver", "market", "bridge",
                         "dream",  "castle", "random", "violet", "copper"};
  int answers = 0;
  int located_correctly = 0;
  for (const char* query : fresh) {
    auto response = fixture.site.Query(query);
    deepweb::LabeledPage page = Label(response);
    if (page.pagelet_node == html::kInvalidNode) continue;
    ++answers;
    html::NodeId located = fixture.registry.Locate(page.tree);
    if (PageletMatches(page.tree, located, page.pagelet_node)) {
      ++located_correctly;
    }
  }
  ASSERT_GT(answers, 2);
  EXPECT_EQ(located_correctly, answers);
}

TEST(TemplateRegistryTest, RejectsNoMatchPages) {
  Fixture fixture = Fixture::Make();
  int no_match_pages = 0;
  int false_positives = 0;
  const char* nonsense[] = {"xqzzva", "vxobbq", "kzuuvq", "wqaadq"};
  for (const char* query : nonsense) {
    auto response = fixture.site.Query(query);
    if (response.page_class != deepweb::PageClass::kNoMatch) continue;
    deepweb::LabeledPage page = Label(response);
    ++no_match_pages;
    if (fixture.registry.Locate(page.tree) != html::kInvalidNode) {
      ++false_positives;
    }
  }
  ASSERT_GT(no_match_pages, 0);
  EXPECT_LE(false_positives, no_match_pages / 2);
}

TEST(TemplateRegistryTest, ExtractProducesObjects) {
  Fixture fixture = Fixture::Make();
  auto response = fixture.site.Query("electronics");
  if (response.page_class != deepweb::PageClass::kMultiMatch) {
    GTEST_SKIP() << "category query did not multi-match";
  }
  deepweb::LabeledPage page = Label(response);
  auto extraction = fixture.registry.Extract(page.tree);
  ASSERT_NE(extraction.pagelet, html::kInvalidNode);
  EXPECT_GE(extraction.objects.size(), 2u);
}

TEST(TemplateRegistryTest, EmptyRegistryLocatesNothing) {
  TemplateRegistry registry;
  html::ArenaTree tree =
      html::ParseArena("<table><tr><td>content</td></tr></table>");
  EXPECT_EQ(registry.Locate(tree), html::kInvalidNode);
  EXPECT_TRUE(registry.empty());
}

TEST(TemplateRegistryTest, TemplatesTransferAcrossFreshProbeRounds) {
  // Learn on one probe seed, apply to pages probed with another: the
  // maintenance scenario of a deep-web index re-crawling a known site.
  Fixture fixture = Fixture::Make(1);
  deepweb::ProbeOptions probe;
  probe.seed = 555777;
  deepweb::SiteSample fresh = deepweb::BuildSiteSample(fixture.site, probe);
  PrecisionRecall pr;
  for (const auto& page : fresh.pages) {
    html::NodeId located = fixture.registry.Locate(page.tree);
    if (page.pagelet_node != html::kInvalidNode) ++pr.truth;
    if (located == html::kInvalidNode) continue;
    ++pr.extracted;
    if (PageletMatches(page.tree, located, page.pagelet_node)) ++pr.correct;
  }
  EXPECT_GT(pr.Recall(), 0.9);
  EXPECT_GT(pr.Precision(), 0.8);
}

}  // namespace
}  // namespace thor::core
