// Google-benchmark microbenchmarks for THOR's primitives: HTML parsing,
// signature construction, TFIDF weighting, cosine similarity, a K-Means
// iteration, string edit distance, the subtree shape distance, and
// Zhang-Shasha tree edit distance.

#include <benchmark/benchmark.h>

#include "src/cluster/kmeans.h"
#include "src/core/common_subtrees.h"
#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/signature_builder.h"
#include "src/core/subtree_filter.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/prober.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "tests/oracle/parser.h"
#include "tests/oracle/reference_locate.h"
#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/text/edit_distance.h"
#include "src/treedist/zhang_shasha.h"

namespace thor {
namespace {

const deepweb::DeepWebSite& BenchSite() {
  static const auto& site = *new deepweb::DeepWebSite([] {
    deepweb::SiteConfig config;
    config.site_id = 0;
    config.domain = deepweb::Domain::kEcommerce;
    config.seed = 99;
    config.catalog_size = 800;
    config.error_rate = 0.0;
    return config;
  }());
  return site;
}

const std::string& MultiMatchHtml() {
  static const auto& html =
      *new std::string(BenchSite().Query("electronics").html);
  return html;
}

const html::ArenaTree& MultiMatchTree() {
  static const auto& tree =
      *new html::ArenaTree(html::ParseArena(MultiMatchHtml()));
  return tree;
}

void BM_ParseHtml(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  for (auto _ : state) {
    html::TagTree tree = html::ParseHtml(html);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseHtml);

// One parser per thread, all parsing the same page at once: with the
// well-known tags resolved without a lock, the per-parse time at 4 threads
// should stay near the 1-thread time (the serving path's ParallelMap
// fan-out parses exactly like this).
void BM_HotParseHtml(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  html::HotParser parser;  // arena + scratch reused across iterations
  for (auto _ : state) {
    const html::ArenaTree& tree = parser.Parse(html);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HotParseHtml)->Threads(1)->Threads(4)->UseRealTime();

const core::TemplateRegistry& BenchRegistry() {
  static const auto& registry = *new core::TemplateRegistry([] {
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = 1234;
    auto pages = core::ToPages(deepweb::BuildSiteSample(BenchSite(), probe));
    auto result = core::RunThor(pages, core::ThorOptions{});
    return core::TemplateRegistry::Learn(pages, *result);
  }());
  return registry;
}

// The serving hot loop on the test oracle's parser, tree and reference
// Locate, the reference the ratio gate divides by: parse + locate per
// request.
void BM_ParseLocate(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  const core::TemplateRegistry& registry = BenchRegistry();
  for (auto _ : state) {
    html::TagTree tree = html::ParseHtml(html);
    auto located = core::LocateDetailed(registry, tree);
    benchmark::DoNotOptimize(located.template_index);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseLocate);

// Same work on the arena pipeline. tools/check_bench_regression.py gates
// CI on the BM_HotParseLocate : BM_ParseLocate time ratio staying within
// 20% of the committed BENCH_micro_baseline.json.
void BM_HotParseLocate(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(BenchRegistry());
  core::HotExtractor extractor;
  for (auto _ : state) {
    const html::ArenaTree& tree = extractor.Parse(html);
    auto located = extractor.Locate(tree, compiled);
    benchmark::DoNotOptimize(located.template_index);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HotParseLocate);

void BM_TagSignature(benchmark::State& state) {
  const html::ArenaTree& tree = MultiMatchTree();
  for (auto _ : state) {
    auto vector = core::TagCountVector(tree);
    benchmark::DoNotOptimize(vector.size());
  }
}
BENCHMARK(BM_TagSignature);

void BM_TermSignature(benchmark::State& state) {
  const html::ArenaTree& tree = MultiMatchTree();
  for (auto _ : state) {
    ir::Vocabulary vocab;
    auto vector = core::TermCountVector(tree, &vocab);
    benchmark::DoNotOptimize(vector.size());
  }
}
BENCHMARK(BM_TermSignature);

std::vector<ir::SparseVector> ProbeTagCounts() {
  std::vector<ir::SparseVector> counts;
  deepweb::ProbeOptions probe;
  deepweb::SiteSample sample = deepweb::BuildSiteSample(BenchSite(), probe);
  for (const auto& page : sample.pages) {
    counts.push_back(core::TagCountVector(page.tree));
  }
  return counts;
}

void BM_TfidfWeighAll(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  for (auto _ : state) {
    auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
    benchmark::DoNotOptimize(weighted.size());
  }
}
BENCHMARK(BM_TfidfWeighAll);

void BM_CosineSimilarity(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
  size_t i = 0;
  for (auto _ : state) {
    double sim = ir::CosineNormalized(weighted[i % weighted.size()],
                                      weighted[(i + 7) % weighted.size()]);
    benchmark::DoNotOptimize(sim);
    ++i;
  }
}
BENCHMARK(BM_CosineSimilarity);

void BM_KMeansIteration(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto result = cluster::KMeansOneIteration(weighted, 3, seed++);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansIteration);

void BM_EditDistanceUrls(benchmark::State& state) {
  std::string a = BenchSite().Query("guitar").url;
  std::string b = BenchSite().Query("electronics").url;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistanceUrls);

void BM_ShapeDistance(benchmark::State& state) {
  const html::ArenaTree& tree = MultiMatchTree();
  auto candidates = core::CandidateSubtrees(tree);
  std::vector<core::ShapeQuad> quads;
  for (html::NodeId id : candidates) {
    quads.push_back(core::MakeShapeQuad(tree, id));
  }
  size_t i = 0;
  for (auto _ : state) {
    double d = core::ShapeDistance(quads[i % quads.size()],
                                   quads[(i + 3) % quads.size()]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_ShapeDistance);

void BM_SinglePageAnalysis(benchmark::State& state) {
  const html::ArenaTree& tree = MultiMatchTree();
  for (auto _ : state) {
    auto candidates = core::CandidateSubtrees(tree);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_SinglePageAnalysis);

void BM_ZhangShasha(benchmark::State& state) {
  treedist::OrderedTree a = treedist::OrderedTree::FromTree(
      MultiMatchTree(), MultiMatchTree().root());
  html::ArenaTree other_tree =
      html::ParseArena(BenchSite().Query("guitar").html);
  treedist::OrderedTree b =
      treedist::OrderedTree::FromTree(other_tree, other_tree.root());
  for (auto _ : state) {
    benchmark::DoNotOptimize(treedist::TreeEditDistance(a, b));
  }
}
BENCHMARK(BM_ZhangShasha);

}  // namespace
}  // namespace thor
