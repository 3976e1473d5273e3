#include "src/deepweb/corpus.h"

#include <string>

#include <gtest/gtest.h>

#include "src/deepweb/site_generator.h"
#include "src/html/parser.h"

namespace thor::deepweb {
namespace {

SiteSample MakeSample() {
  FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions probe;
  probe.num_dictionary_words = 60;
  probe.num_nonsense_words = 6;
  return BuildSiteSample(fleet[0], probe);
}

TEST(CorpusTest, LabelsEveryProbedPage) {
  // BuildSiteSample drops every page LabelPageChecked rejects. No
  // simulator page may be rejected, before or after template drift.
  FleetOptions fleet_options;
  fleet_options.num_sites = 20;
  fleet_options.drift.seed = 17;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions probe;
  probe.num_dictionary_words = 60;
  probe.num_nonsense_words = 6;
  for (int epoch : {0, 3}) {
    SetFleetEpoch(&fleet, epoch);
    for (const DeepWebSite& site : fleet) {
      SiteSample sample = BuildSiteSample(site, probe);
      SCOPED_TRACE("site " + std::to_string(site.config().site_id) +
                   " epoch " + std::to_string(epoch));
      EXPECT_EQ(sample.site_id, site.config().site_id);
      EXPECT_EQ(sample.pages.size(), 66u);
      EXPECT_EQ(sample.diagnostics.pages_dropped, 0);
      for (const LabeledPage& page : sample.pages) {
        EXPECT_FALSE(page.html.empty());
        EXPECT_GT(page.tree.node_count(), 1);
        EXPECT_EQ(page.size_bytes, static_cast<int>(page.html.size()));
      }
    }
  }
}

TEST(CorpusTest, PageletNodeConsistentWithClass) {
  SiteSample sample = MakeSample();
  int with_pagelet = 0;
  for (const LabeledPage& page : sample.pages) {
    if (ClassHasPagelet(page.true_class)) {
      EXPECT_NE(page.pagelet_node, html::kInvalidNode)
          << PageClassName(page.true_class) << " " << page.query;
      ++with_pagelet;
    } else {
      EXPECT_EQ(page.pagelet_node, html::kInvalidNode);
      EXPECT_TRUE(page.object_nodes.empty());
    }
  }
  EXPECT_GT(with_pagelet, 0);
}

TEST(CorpusTest, PageletNodeCarriesMarkerAttribute) {
  SiteSample sample = MakeSample();
  for (const LabeledPage& page : sample.pages) {
    if (page.pagelet_node == html::kInvalidNode) continue;
    // The labelled tree stores no attributes: read the marker on the
    // legacy parser's tree, whose node ids the arena tree shares.
    html::TagTree legacy = html::ParseHtml(page.html);
    EXPECT_EQ(legacy.AttributeValue(page.pagelet_node, kQaMarkerAttr),
              kQaPageletValue);
  }
}

TEST(CorpusTest, ObjectNodesAreInsideThePagelet) {
  SiteSample sample = MakeSample();
  for (const LabeledPage& page : sample.pages) {
    for (html::NodeId object : page.object_nodes) {
      EXPECT_TRUE(page.tree.IsAncestorOrSelf(page.pagelet_node, object));
    }
  }
}

TEST(CorpusTest, MultiMatchPagesHaveMultipleObjects) {
  SiteSample sample = MakeSample();
  for (const LabeledPage& page : sample.pages) {
    if (page.true_class == PageClass::kMultiMatch) {
      EXPECT_GE(page.object_nodes.size(), 2u) << page.query;
    }
  }
}

TEST(CorpusTest, ClassLabelsMatchPages) {
  SiteSample sample = MakeSample();
  auto labels = sample.ClassLabels();
  ASSERT_EQ(labels.size(), sample.pages.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], static_cast<int>(sample.pages[i].true_class));
  }
}

TEST(CorpusTest, PageletPageIndices) {
  SiteSample sample = MakeSample();
  auto indices = sample.PageletPageIndices();
  for (int index : indices) {
    EXPECT_TRUE(
        ClassHasPagelet(sample.pages[static_cast<size_t>(index)].true_class));
  }
  int expected = 0;
  for (const LabeledPage& page : sample.pages) {
    if (ClassHasPagelet(page.true_class)) ++expected;
  }
  EXPECT_EQ(static_cast<int>(indices.size()), expected);
}

TEST(CorpusTest, BuildCorpusVariesProbeWordsPerSite) {
  FleetOptions fleet_options;
  fleet_options.num_sites = 3;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions probe;
  probe.num_dictionary_words = 20;
  probe.num_nonsense_words = 2;
  auto corpus = BuildCorpus(fleet, probe);
  ASSERT_EQ(corpus.size(), 3u);
  // Different sites receive different word samples.
  EXPECT_NE(corpus[0].pages[0].query, corpus[1].pages[0].query);
  for (const auto& sample : corpus) {
    EXPECT_EQ(sample.pages.size(), 22u);
  }
}

TEST(CorpusTest, NonsenseFlagSurvivesLabeling) {
  SiteSample sample = MakeSample();
  int flagged = 0;
  for (const LabeledPage& page : sample.pages) {
    if (page.from_nonsense_probe) {
      ++flagged;
      EXPECT_FALSE(ClassHasPagelet(page.true_class));
    }
  }
  EXPECT_EQ(flagged, 6);
}

}  // namespace
}  // namespace thor::deepweb
