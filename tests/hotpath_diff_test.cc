// Differential harness for the extraction hot path: the arena pipeline
// (HotParser / HotExtractor / CompiledTemplates) must be *bit-identical*
// to the legacy pipeline (ParseHtml / TagCountVector / LocateDetailed /
// PartitionObjects) on every page a deepweb fleet can produce — fresh
// answer pages, no-match pages, and three template-drift epochs.
//
// What the two pipelines still implement separately is compared whole:
// the parsers and trees, the fused signature, and Locate. The candidate
// filter, the shape arithmetic, Stage 3 and the object text are one
// template each, instantiated on both trees; those are compared at every
// node of the corpus, so each instantiation is exercised far beyond the
// few pagelets a template locates, and extraction is compared under a
// registry learned for every site at every epoch as well as under the
// epoch-0 registry of site 0 (which misses most drifted pages).
//
// This is the contract that lets the serving layer run the hot path alone,
// with the legacy pipeline kept as the reference it is checked against:
// any observable divergence is a bug in the hot path, full stop.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/object_partition.h"
#include "src/core/signature_builder.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"
#include "src/html/parser.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "src/util/json.h"
#include "tests/tree_diff.h"

namespace thor {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// A page on the legacy parser and tree: the reference every hot-path
/// result below is compared with.
struct LegacyPage {
  explicit LegacyPage(std::string_view html,
                      const html::ParseOptions& options = {})
      : tree(html::ParseHtml(html, options)) {}
  html::TagTree tree;
};

constexpr int kEpochs = 3;
constexpr size_t kQueriesPerSite = 12;

// One drifting fleet plus a registry learned at epoch 0 — the corpus every
// differential test below runs over.
struct DiffWorld {
  std::vector<deepweb::DeepWebSite> fleet;
  core::TemplateRegistry registry;  ///< learned from fleet[0] at epoch 0

  static DiffWorld Make() {
    deepweb::FleetOptions options;
    options.num_sites = 2;
    options.seed = 11;
    options.drift.seed = 2026;  // enable deterministic template drift
    DiffWorld world{deepweb::GenerateSiteFleet(options), {}};
    world.registry = Learn(world.fleet[0]);
    return world;
  }

  /// A registry learned from a probed sample of `site` at its current
  /// epoch.
  static core::TemplateRegistry Learn(const deepweb::DeepWebSite& site) {
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = 1234;
    auto pages = core::ToPages(deepweb::BuildSiteSample(site, probe));
    auto result = core::RunThor(pages, core::ThorOptions{});
    EXPECT_TRUE(result.ok()) << result.status();
    core::TemplateRegistry registry =
        core::TemplateRegistry::Learn(pages, *result);
    EXPECT_FALSE(registry.empty());
    return registry;
  }

  /// Registries learned from every site at every epoch, [epoch][site]: the
  /// epoch-0 registry misses most drifted pages and every page of the
  /// other site, so these are what make the extraction comparisons see
  /// hits on both sites at every epoch. Leaves the fleet at epoch 0.
  std::vector<std::vector<core::TemplateRegistry>> LearnEverySiteAndEpoch() {
    std::vector<std::vector<core::TemplateRegistry>> learned(kEpochs);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      deepweb::SetFleetEpoch(&fleet, epoch);
      for (const deepweb::DeepWebSite& site : fleet) {
        learned[static_cast<size_t>(epoch)].push_back(Learn(site));
      }
    }
    deepweb::SetFleetEpoch(&fleet, 0);
    return learned;
  }

  /// Fresh pages (never probed during learning) from every site at the
  /// fleet's current epoch: answer pages, single matches, no-match pages —
  /// the diff must hold on all of them, misses included. Site s owns
  /// pages [s * kQueriesPerSite, (s + 1) * kQueriesPerSite).
  std::vector<std::string> FreshHtml() {
    const char* queries[kQueriesPerSite] = {
        "window", "garden", "silver", "market", "bridge", "dream",
        "castle", "violet", "zzqqx",  "copper", "stone",  "river"};
    std::vector<std::string> html;
    for (auto& site : fleet) {
      for (const char* query : queries) {
        html.push_back(site.Query(query).html);
      }
    }
    return html;
  }
};

using tree_diff::ArenaPreorder;
using tree_diff::ExpectTreesIdentical;

TEST(HotPathDiffTest, TreesMatchNodeByNodeAcrossDriftEpochs) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    ASSERT_FALSE(corpus.empty());
    for (size_t i = 0; i < corpus.size(); ++i) {
      LegacyPage page(corpus[i]);
      const html::ArenaTree& hot = parser.Parse(corpus[i]);
      ExpectTreesIdentical(page.tree, hot,
                           "epoch " + std::to_string(epoch) + " page " +
                               std::to_string(i));
    }
  }
}

TEST(HotPathDiffTest, MaxNodesCapProducesIdenticalTruncation) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  auto corpus = world.FreshHtml();
  html::ParseOptions options;
  for (int cap : {1, 5, 40, 200}) {
    options.max_nodes = cap;
    for (size_t i = 0; i < corpus.size(); ++i) {
      LegacyPage page(corpus[i], options);
      const html::ArenaTree& hot = parser.Parse(corpus[i], options);
      ExpectTreesIdentical(page.tree, hot,
                           "cap " + std::to_string(cap) + " page " +
                               std::to_string(i));
    }
  }
}

// The fused tokenize+count signature must equal signature_builder's
// two-pass TagCountVector down to the last weight bit: clustering and the
// stable-tag gate both hang off these vectors.
TEST(HotPathDiffTest, FusedSignaturesBitIdenticalToTagCountVector) {
  DiffWorld world = DiffWorld::Make();
  core::HotExtractor extractor;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    for (const std::string& html : world.FreshHtml()) {
      LegacyPage page(html);
      extractor.Parse(html);
      ir::SparseVector legacy = core::TagCountVector(page.tree);
      ir::SparseVector hot = extractor.PageTagCounts();
      ASSERT_EQ(legacy.entries().size(), hot.entries().size());
      for (size_t e = 0; e < legacy.entries().size(); ++e) {
        EXPECT_EQ(legacy.entries()[e].id, hot.entries()[e].id);
        EXPECT_TRUE(BitEqual(legacy.entries()[e].weight,
                             hot.entries()[e].weight));
      }
      EXPECT_TRUE(BitEqual(legacy.Norm(), hot.Norm()));
    }
  }
}

// LocateDetailed: node (compared by path address — the two trees number
// nodes differently), distance, budget, template index, exact-path flag,
// and the derived confidence must all be bit-identical, at every epoch.
TEST(HotPathDiffTest, LocateDetailedBitIdenticalAcrossDriftEpochs) {
  DiffWorld world = DiffWorld::Make();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;
  int hits = 0;
  int misses = 0;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " page " +
                   std::to_string(i));
      LegacyPage page(corpus[i]);
      auto legacy = world.registry.LocateDetailed(page.tree);
      const html::ArenaTree& tree = extractor.Parse(corpus[i]);
      auto hot = extractor.Locate(tree, compiled);
      ASSERT_EQ(legacy.node == html::kInvalidNode,
                hot.node == html::kInvalidNode);
      if (legacy.node != html::kInvalidNode) {
        ++hits;
        EXPECT_EQ(page.tree.PathString(legacy.node),
                  tree.PathString(hot.node));
      } else {
        ++misses;
      }
      EXPECT_TRUE(BitEqual(legacy.distance, hot.distance))
          << legacy.distance << " vs " << hot.distance;
      EXPECT_TRUE(BitEqual(legacy.budget, hot.budget));
      EXPECT_EQ(legacy.template_index, hot.template_index);
      EXPECT_EQ(legacy.exact_path, hot.exact_path);
      EXPECT_TRUE(BitEqual(legacy.Confidence(), hot.Confidence()));
    }
  }
  // The corpus must exercise both outcomes or the diff proves nothing.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

// Full serving extraction on one page: HotExtractor::Extract against the
// legacy serving path, verbatim. Counts a template hit in `*hits`.
void ExpectExtractionIdentical(const core::TemplateRegistry& registry,
                               const core::CompiledTemplates& compiled,
                               const std::string& html,
                               core::HotExtractor* extractor, int* hits) {
  auto hot = extractor->Extract(html, compiled);
  LegacyPage page(html);
  auto located = registry.LocateDetailed(page.tree);
  if (located.node == html::kInvalidNode) {
    EXPECT_FALSE(hot.hit);
    EXPECT_TRUE(hot.pagelet_path.empty());
    EXPECT_TRUE(hot.objects.empty());
    return;
  }
  ++*hits;
  ASSERT_TRUE(hot.hit);
  EXPECT_EQ(hot.pagelet_path, page.tree.PathString(located.node));
  auto spans = core::PartitionObjects(page.tree, located.node, {}, {});
  std::vector<std::string> legacy_objects =
      core::ObjectTexts(page.tree, spans);
  EXPECT_EQ(hot.objects, legacy_objects);
}

// Full serving extraction: pagelet path + partitioned object texts.
TEST(HotPathDiffTest, ExtractionOutputIdenticalToLegacyPipeline) {
  DiffWorld world = DiffWorld::Make();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;
  int hits = 0;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " page " +
                   std::to_string(i));
      ExpectExtractionIdentical(world.registry, compiled, corpus[i],
                                &extractor, &hits);
    }
  }
  EXPECT_GT(hits, 0);
}

// The same comparison under each site's own registry at each epoch, so it
// sees template hits on both sites at every epoch, not only on the pages
// the epoch-0 registry of site 0 still recognises.
TEST(HotPathDiffTest, ExtractionIdenticalUnderEverySiteAndEpochRegistry) {
  DiffWorld world = DiffWorld::Make();
  auto learned = world.LearnEverySiteAndEpoch();
  core::HotExtractor extractor;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t site = 0; site < world.fleet.size(); ++site) {
      const core::TemplateRegistry& registry =
          learned[static_cast<size_t>(epoch)][site];
      core::CompiledTemplates compiled =
          core::CompiledTemplates::Compile(registry);
      int hits = 0;
      for (size_t q = 0; q < kQueriesPerSite; ++q) {
        SCOPED_TRACE("epoch " + std::to_string(epoch) + " site " +
                     std::to_string(site) + " query " + std::to_string(q));
        ExpectExtractionIdentical(registry, compiled,
                                  corpus[site * kQueriesPerSite + q],
                                  &extractor, &hits);
      }
      EXPECT_GT(hits, 0) << "epoch " << epoch << " site " << site;
    }
  }
}

// The candidate filter and Stage 3 are each one template instantiated on
// both trees. Run both instantiations at every node of every corpus page
// (not only at the few pagelets a template locates) and require the same
// decision, the same spans and the same object texts, through every
// Stage-3 rule.
TEST(HotPathDiffTest, SharedRulesAgreeOnBothTreesAtEveryNode) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  core::FlatObjects legacy_objects;
  core::FlatObjects hot_objects;
  int nodes = 0;
  int candidates = 0;
  int rule_counts[3] = {0, 0, 0};
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t page_index = 0; page_index < corpus.size(); ++page_index) {
      LegacyPage page(corpus[page_index]);
      const html::TagTree& legacy = page.tree;
      const html::ArenaTree& hot = parser.Parse(corpus[page_index]);
      std::vector<html::NodeId> legacy_order = legacy.Preorder();
      std::vector<html::NodeId> hot_order = ArenaPreorder(hot);
      ASSERT_EQ(legacy_order.size(), hot_order.size());
      // Spans are compared by preorder position: the trees need not
      // number their nodes alike.
      std::vector<size_t> legacy_position(legacy_order.size());
      std::vector<size_t> hot_position(hot_order.size());
      for (size_t i = 0; i < legacy_order.size(); ++i) {
        legacy_position[static_cast<size_t>(legacy_order[i])] = i;
        hot_position[static_cast<size_t>(hot_order[i])] = i;
      }
      for (size_t i = 0; i < legacy_order.size(); ++i) {
        SCOPED_TRACE("epoch " + std::to_string(epoch) + " page " +
                     std::to_string(page_index) + " preorder index " +
                     std::to_string(i));
        const html::NodeId l = legacy_order[i];
        const html::NodeId h = hot_order[i];
        ++nodes;
        const bool candidate = core::IsCandidateRoot(legacy, l, {});
        EXPECT_EQ(candidate, core::IsCandidateRoot(hot, h, {}));
        candidates += candidate ? 1 : 0;
        if (!legacy.node(l).is_tag()) continue;
        // Seed the shape grouping with the last child, as a Phase-II hint.
        std::vector<html::NodeId> legacy_hints;
        std::vector<html::NodeId> hot_hints;
        if (!legacy.node(l).children.empty()) {
          legacy_hints.push_back(legacy.node(l).children.back());
          hot_hints.push_back(hot.node(h).last_child);
        }
        const core::PartitionRule rule =
            core::PartitionInto(legacy, l, legacy_hints, {}, &legacy_objects);
        ASSERT_EQ(rule,
                  core::PartitionInto(hot, h, hot_hints, {}, &hot_objects));
        ++rule_counts[static_cast<int>(rule)];
        ASSERT_EQ(legacy_objects.offsets, hot_objects.offsets);
        for (size_t k = 0; k < legacy_objects.parts.size(); ++k) {
          EXPECT_EQ(
              legacy_position[static_cast<size_t>(legacy_objects.parts[k])],
              hot_position[static_cast<size_t>(hot_objects.parts[k])]);
        }
        for (size_t k = 0; k < legacy_objects.size(); ++k) {
          std::string legacy_text;
          std::string hot_text;
          core::AppendObjectText(legacy, legacy_objects.object(k),
                                 &legacy_text);
          core::AppendObjectText(hot, hot_objects.object(k), &hot_text);
          EXPECT_EQ(legacy_text, hot_text);
        }
      }
    }
  }
  // Every rule must fire, or the agreement proves nothing about it.
  EXPECT_GT(nodes, 1000);
  EXPECT_GT(candidates, 0);
  EXPECT_GT(rule_counts[static_cast<int>(core::PartitionRule::kPeriod)], 0);
  EXPECT_GT(rule_counts[static_cast<int>(core::PartitionRule::kShapeGroup)],
            0);
  EXPECT_GT(
      rule_counts[static_cast<int>(core::PartitionRule::kWholePagelet)], 0);
  std::printf("[ shared rules ] %d nodes, %d candidates; period %d, "
              "shape group %d, whole pagelet %d\n",
              nodes, candidates,
              rule_counts[static_cast<int>(core::PartitionRule::kPeriod)],
              rule_counts[static_cast<int>(core::PartitionRule::kShapeGroup)],
              rule_counts[static_cast<int>(
                  core::PartitionRule::kWholePagelet)]);
}

using Response = serve::ExtractionService::Response;

std::string SerializeResponses(const std::vector<Response>& responses) {
  JsonWriter json;
  json.BeginArray();
  for (const auto& r : responses) {
    json.BeginObject();
    json.Key("source").String(serve::ExtractionService::SourceName(r.source));
    json.Key("pagelet").String(r.pagelet_path);
    json.Key("confidence").Double(r.confidence);
    json.Key("generation").Int(r.generation);
    json.Key("objects").BeginArray();
    for (const auto& object : r.objects) json.String(object);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

// The legacy pipeline's response (ParseHtml + LocateDetailed +
// PartitionObjects + ObjectTexts) for one page under `registry`.
Response LegacyResponse(const core::TemplateRegistry& registry,
                        const std::string& html, int64_t generation) {
  Response want;
  want.generation = generation;
  LegacyPage page(html);
  auto located = registry.LocateDetailed(page.tree);
  if (located.node != html::kInvalidNode) {
    want.source = serve::ExtractionService::Source::kTemplate;
    want.confidence = located.Confidence();
    want.pagelet_path = page.tree.PathString(located.node);
    want.objects = core::ObjectTexts(
        page.tree, core::PartitionObjects(page.tree, located.node, {}, {}));
  }
  return want;
}

// The store-backed service at 1 and 4 worker threads must answer
// `requests` exactly as `expected`, confidences to the bit.
void ExpectServiceResponses(
    serve::TemplateStore* store,
    const std::vector<serve::ExtractionService::Request>& requests,
    const std::vector<Response>& expected, const std::string& context) {
  const std::string reference = SerializeResponses(expected);
  for (int threads : {1, 4}) {
    serve::ServiceOptions options;
    options.threads = threads;
    serve::ExtractionService service(store, options);
    std::vector<Response> got = service.ExtractBatch(requests);
    EXPECT_EQ(SerializeResponses(got), reference)
        << context << " threads=" << threads;
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(BitEqual(got[i].confidence, expected[i].confidence))
          << context << " threads=" << threads << " page " << i;
    }
  }
}

// Service-level closure: the store-backed service, at 1 and 4 worker
// threads, must emit exactly the responses the legacy pipeline
// (ParseHtml + LocateDetailed + PartitionObjects + ObjectTexts) builds
// over the in-memory registry, across drift epochs. The registry reaches
// the service only through the store, so this also pins that a learned
// registry survives persistence and locates identically.
TEST(HotPathDiffTest, ServiceResponsesIdenticalAcrossPipelinesAndThreads) {
  namespace fs = std::filesystem;
  DiffWorld world = DiffWorld::Make();
  fs::path dir = fs::path(::testing::TempDir()) / "thor_hotpath_diff";
  fs::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir.string());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    std::vector<serve::ExtractionService::Request> requests;
    std::vector<Response> expected;
    for (const std::string& html : world.FreshHtml()) {
      requests.push_back({"site0", html});
      // Legacy reference over the in-memory registry. Every response,
      // misses included, names generation 1: the store's only commit.
      expected.push_back(LegacyResponse(world.registry, html, 1));
    }
    ExpectServiceResponses(&*store, requests, expected,
                           "epoch " + std::to_string(epoch));
  }
}

// The same closure with each site served its own registry, relearned at
// every epoch, so the service answers template hits on both sites at
// every epoch.
TEST(HotPathDiffTest, ServiceResponsesIdenticalUnderEverySiteAndEpochRegistry) {
  namespace fs = std::filesystem;
  DiffWorld world = DiffWorld::Make();
  auto learned = world.LearnEverySiteAndEpoch();
  fs::path dir =
      fs::path(::testing::TempDir()) / "thor_hotpath_diff_every_site";
  fs::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir.string());
  ASSERT_TRUE(store.ok()) << store.status();

  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    const auto& registries = learned[static_cast<size_t>(epoch)];
    std::vector<std::string> corpus = world.FreshHtml();
    std::vector<serve::ExtractionService::Request> requests;
    std::vector<Response> expected;
    int hits = 0;
    for (size_t site = 0; site < world.fleet.size(); ++site) {
      const std::string name = "site" + std::to_string(site);
      ASSERT_TRUE(store->Put(name, registries[site]).ok());
      for (size_t q = 0; q < kQueriesPerSite; ++q) {
        const std::string& html = corpus[site * kQueriesPerSite + q];
        requests.push_back({name, html});
        expected.push_back(LegacyResponse(registries[site], html,
                                          store->Generation(name)));
        if (expected.back().source ==
            serve::ExtractionService::Source::kTemplate) {
          ++hits;
        }
      }
    }
    EXPECT_GT(hits, 0) << "epoch " << epoch;
    ExpectServiceResponses(&*store, requests, expected,
                           "epoch " + std::to_string(epoch));
  }
}

}  // namespace
}  // namespace thor
