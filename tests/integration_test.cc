// Cross-module property tests: invariants that must hold for every page
// the simulator can produce and every extraction the pipeline emits,
// swept across fleet seeds.

#include <set>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/object_fields.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"

namespace thor {
namespace {

class FleetSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::vector<deepweb::SiteSample> Corpus(int sites) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = sites;
    fleet_options.seed = GetParam();
    auto fleet = deepweb::GenerateSiteFleet(fleet_options);
    deepweb::ProbeOptions probe;
    probe.seed = GetParam() * 13 + 1;
    probe.num_dictionary_words = 60;
    probe.num_nonsense_words = 6;
    return deepweb::BuildCorpus(fleet, probe);
  }
};

TEST_P(FleetSweep, SerializeParseRoundTripIsStructurePreserving) {
  for (const auto& sample : Corpus(2)) {
    for (const auto& page : sample.pages) {
      // The serializer writes the legacy tree (it needs the attributes);
      // reparsing its output must give back the learned tree's structure.
      html::TagTree reparsed =
          html::ParseHtml(html::Serialize(html::ParseHtml(page.html)));
      EXPECT_EQ(reparsed.SubtreeSize(reparsed.root()),
                page.tree.SubtreeSize(page.tree.root()))
          << page.query;
      EXPECT_EQ(reparsed.SubtreeText(reparsed.root()),
                page.tree.SubtreeText(page.tree.root()));
    }
  }
}

TEST_P(FleetSweep, ExtractionInvariants) {
  for (const auto& sample : Corpus(2)) {
    auto pages = core::ToPages(sample);
    auto result = core::RunThor(pages, core::ThorOptions{});
    ASSERT_TRUE(result.ok());
    for (const auto& page_result : result->pages) {
      ASSERT_GE(page_result.page_index, 0);
      ASSERT_LT(page_result.page_index, static_cast<int>(pages.size()));
      const html::ArenaTree& tree =
          pages[static_cast<size_t>(page_result.page_index)].tree;
      // The pagelet is a content-bearing tag node, never the whole page.
      ASSERT_GE(page_result.pagelet, 0);
      ASSERT_LT(page_result.pagelet, tree.node_count());
      const html::ArenaNode& node = tree.node(page_result.pagelet);
      EXPECT_TRUE(node.is_tag());
      EXPECT_GT(node.content_length, 0);
      EXPECT_NE(page_result.pagelet, tree.root());
      // Objects tile inside the pagelet without duplicates.
      std::set<html::NodeId> seen;
      for (const auto& span : page_result.objects) {
        for (html::NodeId part : span.parts) {
          EXPECT_TRUE(tree.IsAncestorOrSelf(page_result.pagelet, part));
          EXPECT_TRUE(seen.insert(part).second);
        }
      }
      // Field extraction never crashes and covers every object.
      auto fields = core::PartitionAllFields(tree, page_result.objects);
      EXPECT_EQ(fields.size(), page_result.objects.size());
    }
  }
}

TEST_P(FleetSweep, CorpusConstructionIsDeterministic) {
  auto a = Corpus(1);
  auto b = Corpus(1);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a[0].pages.size(), b[0].pages.size());
  for (size_t i = 0; i < a[0].pages.size(); ++i) {
    EXPECT_EQ(a[0].pages[i].html, b[0].pages[i].html);
    EXPECT_EQ(a[0].pages[i].pagelet_node, b[0].pages[i].pagelet_node);
  }
}

TEST_P(FleetSweep, PipelineQualityHoldsAcrossSeeds) {
  core::PrecisionRecall total;
  for (const auto& sample : Corpus(3)) {
    auto pages = core::ToPages(sample);
    auto result = core::RunThor(pages, core::ThorOptions{});
    ASSERT_TRUE(result.ok());
    total.Add(core::EvaluatePagelets(sample, *result));
  }
  EXPECT_GT(total.Precision(), 0.85);
  EXPECT_GT(total.Recall(), 0.85);
}

TEST_P(FleetSweep, TemplateRegistryAgreesWithFullPipeline) {
  for (const auto& sample : Corpus(1)) {
    auto pages = core::ToPages(sample);
    auto result = core::RunThor(pages, core::ThorOptions{});
    ASSERT_TRUE(result.ok());
    auto registry = core::TemplateRegistry::Learn(pages, *result);
    if (registry.empty()) continue;
    // Applying the learned templates to the very pages THOR extracted
    // from must reproduce (or relax-match) the pipeline's own answers.
    int agreements = 0;
    for (const auto& page_result : result->pages) {
      const html::ArenaTree& tree =
          pages[static_cast<size_t>(page_result.page_index)].tree;
      html::NodeId located = registry.Locate(tree);
      if (core::PageletMatches(tree, located, page_result.pagelet)) {
        ++agreements;
      }
    }
    EXPECT_GT(static_cast<double>(agreements) / result->pages.size(), 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace thor
