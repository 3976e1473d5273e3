// Chaos integration: the full pipeline over a fleet probed through a
// hostile transport. Asserts graceful degradation (diagnostics counted,
// recall above zero) and bit-reproducibility of every fault from the seed.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/transport.h"
#include "src/html/parser.h"

namespace thor {
namespace {

using core::EvaluatePagelets;
using core::Page;
using core::PrecisionRecall;
using core::RunThor;
using core::ThorOptions;
using core::ToPages;
using deepweb::BuildCorpusResilient;
using deepweb::DeepWebSite;
using deepweb::FaultOptions;
using deepweb::FleetOptions;
using deepweb::GenerateSiteFleet;
using deepweb::ProbeStats;
using deepweb::ResilientProbeOptions;
using deepweb::SiteSample;

std::vector<DeepWebSite> SmallFleet(int num_sites = 4) {
  FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  fleet_options.seed = 19;
  fleet_options.error_rate = 0.0;
  return GenerateSiteFleet(fleet_options);
}

ResilientProbeOptions ChaosProbeOptions() {
  ResilientProbeOptions options;
  options.plan.num_dictionary_words = 40;
  options.plan.num_nonsense_words = 6;
  options.plan.seed = 1234;
  return options;
}

struct ChaosRun {
  std::vector<SiteSample> corpus;
  ProbeStats stats;
  PrecisionRecall totals;
  int pipeline_drops = 0;
  int failed_sites = 0;
};

ChaosRun RunChaosPipeline(double fault_rate, uint64_t fault_seed,
                          int threads) {
  ChaosRun run;
  std::vector<DeepWebSite> fleet = SmallFleet();
  run.corpus = BuildCorpusResilient(
      fleet, ChaosProbeOptions(), FaultOptions::Uniform(fault_rate, fault_seed),
      &run.stats);
  ThorOptions thor_options;
  thor_options.SetAllThreads(threads);
  for (const SiteSample& sample : run.corpus) {
    if (sample.pages.empty()) {
      ++run.failed_sites;
      continue;
    }
    std::vector<Page> pages = ToPages(sample);
    auto result = RunThor(pages, thor_options);
    if (!result.ok()) {
      ++run.failed_sites;
      continue;
    }
    run.pipeline_drops += result->diagnostics.pages_dropped;
    run.totals.Add(EvaluatePagelets(sample, *result));
  }
  return run;
}

TEST(ChaosIntegrationTest, ThirtyPercentFaultsDegradeGracefully) {
  ChaosRun clean = RunChaosPipeline(0.0, 5, /*threads=*/2);
  ChaosRun chaos = RunChaosPipeline(0.3, 5, /*threads=*/2);

  // Clean baseline: nothing dropped, solid recall.
  EXPECT_EQ(clean.stats.retries, 0);
  int clean_dropped = 0;
  for (const SiteSample& s : clean.corpus) {
    clean_dropped += s.diagnostics.pages_dropped;
  }
  EXPECT_EQ(clean_dropped, 0);
  ASSERT_GT(clean.totals.truth, 0);
  EXPECT_GT(clean.totals.Recall(), 0.5);

  // Chaos run: the transport really misbehaved...
  EXPECT_GT(chaos.stats.retries, 0);
  EXPECT_GT(chaos.stats.timeouts + chaos.stats.connection_resets +
                chaos.stats.server_errors + chaos.stats.rate_limited,
            0);
  int chaos_dropped = 0;
  int chaos_truncated = 0;
  for (const SiteSample& s : chaos.corpus) {
    chaos_dropped += s.diagnostics.pages_dropped;
    chaos_truncated += s.diagnostics.pages_truncated_kept;
  }
  // ...some pages were dropped outright, others kept despite damage
  // (nonzero degradation diagnostics)...
  EXPECT_GT(chaos_dropped, 0);
  EXPECT_GT(chaos_dropped + chaos_truncated, chaos_dropped);
  EXPECT_LT(chaos.totals.truth, clean.totals.truth);

  // ...yet the pipeline survived and still extracts pagelets: recall
  // degrades, it does not collapse to zero.
  ASSERT_GT(chaos.totals.truth, 0);
  EXPECT_GT(chaos.totals.correct, 0);
  EXPECT_GT(chaos.totals.Recall(), 0.25);
}

TEST(ChaosIntegrationTest, FaultedRunIsBitReproducibleFromSeed) {
  ChaosRun a = RunChaosPipeline(0.25, 11, /*threads=*/2);
  ChaosRun b = RunChaosPipeline(0.25, 11, /*threads=*/2);

  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (size_t s = 0; s < a.corpus.size(); ++s) {
    ASSERT_EQ(a.corpus[s].pages.size(), b.corpus[s].pages.size()) << s;
    for (size_t p = 0; p < a.corpus[s].pages.size(); ++p) {
      EXPECT_EQ(a.corpus[s].pages[p].html, b.corpus[s].pages[p].html);
      EXPECT_EQ(a.corpus[s].pages[p].query, b.corpus[s].pages[p].query);
    }
    EXPECT_EQ(a.corpus[s].diagnostics.pages_dropped,
              b.corpus[s].diagnostics.pages_dropped);
    EXPECT_EQ(a.corpus[s].diagnostics.pages_truncated_kept,
              b.corpus[s].diagnostics.pages_truncated_kept);
  }
  EXPECT_EQ(a.stats.ToString(), b.stats.ToString());
  EXPECT_EQ(a.totals.correct, b.totals.correct);
  EXPECT_EQ(a.totals.extracted, b.totals.extracted);
  EXPECT_EQ(a.totals.truth, b.totals.truth);
}

TEST(ChaosIntegrationTest, OutcomeIdenticalAtEveryThreadCount) {
  ChaosRun serial = RunChaosPipeline(0.25, 13, /*threads=*/1);
  ChaosRun parallel = RunChaosPipeline(0.25, 13, /*threads=*/4);

  ASSERT_EQ(serial.corpus.size(), parallel.corpus.size());
  for (size_t s = 0; s < serial.corpus.size(); ++s) {
    ASSERT_EQ(serial.corpus[s].pages.size(),
              parallel.corpus[s].pages.size());
    for (size_t p = 0; p < serial.corpus[s].pages.size(); ++p) {
      EXPECT_EQ(serial.corpus[s].pages[p].html,
                parallel.corpus[s].pages[p].html);
    }
  }
  EXPECT_EQ(serial.stats.ToString(), parallel.stats.ToString());
  EXPECT_EQ(serial.totals.correct, parallel.totals.correct);
  EXPECT_EQ(serial.totals.extracted, parallel.totals.extracted);
  EXPECT_EQ(serial.totals.truth, parallel.totals.truth);
  EXPECT_EQ(serial.pipeline_drops, parallel.pipeline_drops);
}

TEST(ChaosIntegrationTest, RunThorDropsDegeneratePagesAndRemaps) {
  // Build a clean sample, then smuggle in a degenerate page (the residue
  // of a truncated fetch that slipped past transport-level checks).
  std::vector<DeepWebSite> fleet = SmallFleet(1);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = 30;
  probe.num_nonsense_words = 4;
  SiteSample sample = BuildSiteSample(fleet[0], probe);
  std::vector<Page> pages = ToPages(sample);
  const size_t clean_count = pages.size();

  Page broken;
  broken.url = "chaos://truncated";
  broken.html = "<html";
  broken.tree = html::ParseHtml(broken.html);
  broken.size_bytes = static_cast<int>(broken.html.size());
  pages.push_back(std::move(broken));

  core::ThorOptions options;
  options.SetAllThreads(1);
  auto result = RunThor(pages, options);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->diagnostics.input_pages,
            static_cast<int>(pages.size()));
  EXPECT_EQ(result->diagnostics.pages_dropped, 1);
  EXPECT_TRUE(result->diagnostics.degraded());

  // The assignment still covers every input page; the dropped page holds
  // the -1 sentinel and extraction indices stay in input coordinates.
  ASSERT_EQ(result->clustering.assignment.size(), pages.size());
  EXPECT_EQ(result->clustering.assignment.back(), -1);
  for (size_t i = 0; i < clean_count; ++i) {
    EXPECT_GE(result->clustering.assignment[i], 0) << i;
  }
  for (const core::ThorPageResult& page : result->pages) {
    EXPECT_GE(page.page_index, 0);
    EXPECT_LT(page.page_index, static_cast<int>(clean_count));
  }
}

TEST(ChaosIntegrationTest, RunThorErrorsWhenNothingUsable) {
  std::vector<Page> pages;
  for (int i = 0; i < 3; ++i) {
    Page broken;
    broken.url = "chaos://" + std::to_string(i);
    broken.html = "<html";
    broken.tree = html::ParseHtml(broken.html);
    pages.push_back(std::move(broken));
  }
  auto result = RunThor(pages);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace thor
