#include "src/serve/extraction_service.h"

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/util/failpoint.h"
#include "src/util/json.h"

namespace thor::serve {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("thor_serve_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// One simulated site plus a learned registry — the serving layer's world.
struct SiteWorld {
  std::vector<deepweb::DeepWebSite> fleet;
  core::TemplateRegistry registry;  ///< learned from fleet[0]

  static SiteWorld Make(int num_sites = 1) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = num_sites;
    SiteWorld world{deepweb::GenerateSiteFleet(fleet_options), {}};
    auto pages = world.Sample(0);
    auto result = core::RunThor(pages, core::ThorOptions{});
    EXPECT_TRUE(result.ok());
    world.registry = core::TemplateRegistry::Learn(pages, *result);
    EXPECT_FALSE(world.registry.empty());
    return world;
  }

  /// Probed training sample for fleet site `index` (smaller than the
  /// paper's 110 pages to keep the tier-1 gate quick).
  std::vector<core::Page> Sample(int index, uint64_t seed = 1234) const {
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = seed;
    return core::ToPages(deepweb::BuildSiteSample(
        fleet[static_cast<size_t>(index)], probe));
  }

  /// Fresh answer-page requests the probe plan never issued.
  std::vector<ExtractionService::Request> FreshRequests(
      int index, const std::string& site_name) const {
    const char* fresh[] = {"window", "garden", "silver", "market",
                           "bridge", "dream",  "castle", "random",
                           "violet", "copper", "stone",  "river"};
    std::vector<ExtractionService::Request> requests;
    for (const char* query : fresh) {
      auto response = fleet[static_cast<size_t>(index)].Query(query);
      if (response.page_class == deepweb::PageClass::kNoMatch ||
          response.page_class == deepweb::PageClass::kError) {
        continue;
      }
      requests.push_back({site_name, response.html});
    }
    return requests;
  }
};

std::string Serialized(const std::vector<ExtractionService::Response>& rs) {
  JsonWriter json;
  json.BeginArray();
  for (const auto& r : rs) {
    json.BeginObject();
    json.Key("source").String(ExtractionService::SourceName(r.source));
    json.Key("pagelet").String(r.pagelet_path);
    json.Key("confidence").Double(r.confidence);
    json.Key("generation").Int(r.generation);
    json.Key("objects").Int(static_cast<long long>(r.objects.size()));
    json.Key("error").String(r.error);
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

TEST(ExtractionServiceTest, ServesFromStoreAndAccountsHits) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("serves"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  SimulatedClock clock;
  ServiceOptions options;
  options.metrics = &metrics;
  options.clock = &clock;
  ExtractionService service(&*store, options);

  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 3u);
  auto responses = service.ExtractBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  int hits = 0;
  for (const auto& response : responses) {
    if (response.source != ExtractionService::Source::kTemplate) continue;
    ++hits;
    EXPECT_FALSE(response.pagelet_path.empty());
    EXPECT_GT(response.confidence, 0.0);
    EXPECT_EQ(response.generation, 1);
    EXPECT_FALSE(response.objects.empty());
  }
  EXPECT_GE(hits, static_cast<int>(requests.size()) - 1);

  // Satellite contract: the serve.* counters and the latency histogram
  // reflect the batch exactly.
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters["serve.template_hit"], hits);
  EXPECT_EQ(snapshot.counters["serve.template_hit"] +
                snapshot.counters["serve.template_miss"],
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(snapshot.counters.count("serve.relearns"), 0u);
  ASSERT_EQ(snapshot.histograms.count("serve.latency_ms"), 1u);
  EXPECT_EQ(snapshot.histograms["serve.latency_ms"].total(),
            static_cast<int64_t>(requests.size()));

  auto stats = service.StatsFor("site0");
  EXPECT_EQ(stats.requests, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
}

TEST(ExtractionServiceTest,
     UnknownSiteWithoutRelearnManagerIsAMissNotAFailure) {
  auto store = TemplateStore::Open(FreshDir("unknown"));
  ASSERT_TRUE(store.ok());
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  ExtractionService service(&*store, options);
  auto response = service.Extract({"nosuch", "<html><body>x</body></html>"});
  EXPECT_EQ(response.source, ExtractionService::Source::kMiss);
  EXPECT_EQ(response.generation, 0);
  EXPECT_TRUE(response.pagelet_path.empty());
  EXPECT_EQ(metrics.Snapshot().counters["serve.template_miss"], 1);
}

TEST(ExtractionServiceTest, InvalidSiteNameIsRejectedWithoutState) {
  auto store = TemplateStore::Open(FreshDir("invalid"));
  ASSERT_TRUE(store.ok());
  ExtractionService service(&*store, {});
  auto response = service.Extract({"../evil", "<html></html>"});
  EXPECT_EQ(response.error, "invalid site name");
  EXPECT_EQ(service.StatsFor("../evil").requests, 0);
}

// Relearns run on a RelearnManager: a miss only enqueues, and the ticketed
// rendezvous adopts the promoted generation at the start of the next batch.
TEST(ExtractionServiceTest, ColdMissTriggersRelearnAndNextRequestHits) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("cold"));
  ASSERT_TRUE(store.ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  std::atomic<int> samples_taken{0};
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string& site, uint64_t) {
                           EXPECT_EQ(site, "site0");
                           ++samples_taken;
                           return world.Sample(0);
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.relearn_manager = &manager;
  ExtractionService service(&*store, options);

  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 2u);
  // First request: the store is empty, so the miss enqueues the
  // learn-once relearn and stands.
  auto first = service.Extract(requests[0]);
  EXPECT_EQ(first.source, ExtractionService::Source::kMiss);
  EXPECT_EQ(first.generation, 0);
  // Second request: its batch adopts generation 1 before resolving.
  auto second = service.Extract(requests[1]);
  EXPECT_EQ(second.source, ExtractionService::Source::kTemplate);
  EXPECT_EQ(second.generation, 1);
  EXPECT_EQ(store->Generation("site0"), 1);
  manager.Stop();
  EXPECT_EQ(samples_taken.load(), 1);

  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters["serve.relearns"], 1);
  EXPECT_EQ(snapshot.counters["serve.template_hit"], 1);
  EXPECT_EQ(service.StatsFor("site0").relearns, 1);
}

TEST(ExtractionServiceTest, UnlearnableSiteDegradesToMissesWithoutThrash) {
  auto store = TemplateStore::Open(FreshDir("unlearnable"));
  ASSERT_TRUE(store.ok());
  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  std::atomic<int> samples_taken{0};
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           ++samples_taken;
                           return std::vector<core::Page>{};  // always fails
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.relearn_manager = &manager;
  options.relearn_min_requests = 4;
  ExtractionService service(&*store, options);
  for (int i = 0; i < 10; ++i) {
    auto response =
        service.Extract({"deadsite", "<html><body>x</body></html>"});
    EXPECT_EQ(response.source, ExtractionService::Source::kMiss);
  }
  manager.Stop();
  // One cold attempt, then one per refilled (drift: half-) window — not
  // one per request.
  EXPECT_LE(samples_taken.load(), 4);
  EXPECT_EQ(metrics.Snapshot().counters["serve.template_miss"], 10);
  EXPECT_EQ(metrics.Snapshot().counters.count("serve.relearns"), 0u);
}

// Holds a relearn job in its sampler until the test releases it, so a job
// enqueued mid-batch stays in flight for the rest of that batch: every
// later trigger in the batch deterministically dedupes against it, however
// fast the relearn itself would have been.
struct SamplerGate {
  std::promise<void> go;
  std::shared_future<void> released = go.get_future().share();
};

TEST(ExtractionServiceTest, StaleTemplatesRelearnMidBatchAndRecover) {
  // Store templates learned from a *different* site under "site0": the
  // serving-time reality (site 1's pages) no longer matches the stored
  // knowledge, which is exactly the staleness the policy must detect.
  SiteWorld world = SiteWorld::Make(/*num_sites=*/2);
  auto store = TemplateStore::Open(FreshDir("stale"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  SamplerGate gate;
  RelearnManager manager(&*store, manager_options,
                         [&world, released = gate.released](
                             const std::string&, uint64_t) {
                           released.wait();
                           return world.Sample(1);
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.relearn_manager = &manager;
  options.relearn_min_requests = 4;
  options.relearn_miss_rate = 0.5;
  ExtractionService service(&*store, options);

  // Serve site 1 answer pages against site 0 templates, twice over so the
  // window fills mid-batch.
  auto requests = world.FreshRequests(1, "site0");
  ASSERT_GE(requests.size(), 3u);
  std::vector<ExtractionService::Request> stream;
  for (int round = 0; round < 3; ++round) {
    stream.insert(stream.end(), requests.begin(), requests.end());
  }
  auto responses = service.ExtractBatch(stream);
  gate.go.set_value();
  // The relearn was only enqueued: this whole batch served generation 1.
  for (const auto& response : responses) {
    EXPECT_EQ(response.generation, 1);
  }

  // The next batch adopts the fresh generation before resolving.
  auto next = service.ExtractBatch(requests);
  EXPECT_EQ(store->Generation("site0"), 2);
  EXPECT_EQ(metrics.Snapshot().counters["serve.relearns"], 1);
  const auto& last = next.back();
  EXPECT_EQ(last.source, ExtractionService::Source::kTemplate);
  EXPECT_EQ(last.generation, 2);
  EXPECT_FALSE(last.pagelet_path.empty());
  manager.Stop();
}

TEST(ExtractionServiceTest, BatchStreamIsByteIdenticalAtEveryThreadCount) {
  SiteWorld world = SiteWorld::Make(/*num_sites=*/2);
  auto requests = world.FreshRequests(1, "site0");
  std::string serialized[2];
  int thread_counts[2] = {1, 4};
  for (int v = 0; v < 2; ++v) {
    // Fresh store + service per run: same inputs, different thread count.
    auto store =
        TemplateStore::Open(FreshDir("det" + std::to_string(v)));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("site0", world.registry).ok());
    SamplerGate gate;
    RelearnManager manager(&*store, {},
                           [&world, released = gate.released](
                               const std::string&, uint64_t) {
                             released.wait();
                             return world.Sample(1);
                           });
    ServiceOptions options;
    options.relearn_min_requests = 4;
    options.relearn_miss_rate = 0.5;
    options.threads = thread_counts[v];
    options.relearn_manager = &manager;
    ExtractionService service(&*store, options);
    serialized[v] = Serialized(service.ExtractBatch(requests));
    gate.go.set_value();
    for (int batch = 0; batch < 2; ++batch) {
      serialized[v] += Serialized(service.ExtractBatch(requests));
    }
    manager.Stop();
  }
  // The stale-store stream exercises miss, the mid-batch relearn enqueue,
  // and the adoption at the next batch — all of it must be identical at 1
  // and 4 threads.
  EXPECT_EQ(serialized[0], serialized[1]);
  EXPECT_NE(serialized[0].find("\"generation\":2"), std::string::npos);
}

TEST(ExtractionServiceTest, EvictedSitesReloadFromStoreTransparently) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("evict"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("alpha", world.registry).ok());
  ASSERT_TRUE(store->Put("beta", world.registry).ok());
  ServiceOptions options;
  options.cache_capacity = 1;  // every alternation evicts the other site
  ExtractionService service(&*store, options);
  auto requests = world.FreshRequests(0, "alpha");
  ASSERT_GE(requests.size(), 1u);
  for (int i = 0; i < 3; ++i) {
    for (const std::string& site : {std::string("alpha"),
                                    std::string("beta")}) {
      auto response = service.Extract({site, requests[0].html});
      EXPECT_EQ(response.source, ExtractionService::Source::kTemplate)
          << site << " round " << i;
    }
  }
  EXPECT_EQ(service.StatsFor("alpha").hits, 3);
  EXPECT_EQ(service.StatsFor("beta").hits, 3);
}

// --- deadline edge cases -------------------------------------------------

TEST(ExtractionServiceTest, BatchExpiredAtEntryDegradesEveryRequest) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("dl_entry"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  SimulatedClock clock;
  ServiceOptions options;
  options.metrics = &metrics;
  options.clock = &clock;
  options.threads = 1;
  ExtractionService service(&*store, options);

  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 2u);
  auto responses =
      service.ExtractBatch(requests, Deadline::After(&clock, 0.0));
  ASSERT_EQ(responses.size(), requests.size());
  for (const auto& response : responses) {
    EXPECT_EQ(response.source, ExtractionService::Source::kDeadline);
    EXPECT_EQ(response.error, "deadline exceeded");
  }
  EXPECT_EQ(metrics.Snapshot().counters["serve.deadline_exceeded"],
            static_cast<int64_t>(requests.size()));
  // Dropped requests never reach accounting; the staleness window and the
  // per-site tallies are exactly as if the batch had not arrived.
  EXPECT_EQ(service.StatsFor("site0").requests, 0);
  // The service itself is unharmed: the same batch without a deadline is
  // served normally.
  auto retried = service.ExtractBatch(requests);
  EXPECT_EQ(retried[0].source, ExtractionService::Source::kTemplate);
}

TEST(ExtractionServiceTest, DeadlineFiringBetweenPassesDropsTheBatch) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("dl_mid"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  SimulatedClock clock;
  ServiceOptions options;
  options.metrics = &metrics;
  options.clock = &clock;
  options.threads = 1;
  ExtractionService service(&*store, options);

  // A delay failpoint at the resolve/extract boundary advances the shared
  // simulated clock past the deadline after the sites are resolved — the
  // deterministic stand-in for a slow store read eating the budget.
  auto* failpoints = FailpointRegistry::Global();
  failpoints->SetClock(&clock);
  ASSERT_TRUE(failpoints->Arm("serve.batch.extract", "delay=200").ok());
  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 2u);
  auto responses =
      service.ExtractBatch(requests, Deadline::After(&clock, 100.0));
  failpoints->Disarm("serve.batch.extract");
  failpoints->SetClock(nullptr);

  for (const auto& response : responses) {
    EXPECT_EQ(response.source, ExtractionService::Source::kDeadline);
  }
  EXPECT_EQ(metrics.Snapshot().counters["serve.deadline_exceeded"],
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(service.StatsFor("site0").requests, 0);
}

TEST(ExtractionServiceTest,
     DeadlineBeforeAccountingSkipsRelearnLeavingCountersUntouched) {
  // Stale store: site 1 pages served against site 0 templates would
  // normally enqueue a relearn mid-batch. With the deadline expiring
  // between extraction and accounting, the misses must stand and no
  // relearn may be scheduled.
  SiteWorld world = SiteWorld::Make(/*num_sites=*/2);
  auto store = TemplateStore::Open(FreshDir("dl_account"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  SimulatedClock clock;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  std::atomic<int> samples_taken{0};
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           ++samples_taken;
                           return world.Sample(1);
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.clock = &clock;
  options.threads = 1;
  options.relearn_min_requests = 2;
  options.relearn_miss_rate = 0.5;
  options.relearn_manager = &manager;
  ExtractionService service(&*store, options);

  auto* failpoints = FailpointRegistry::Global();
  failpoints->SetClock(&clock);
  ASSERT_TRUE(failpoints->Arm("serve.batch.account", "delay=200").ok());
  auto requests = world.FreshRequests(1, "site0");
  ASSERT_GE(requests.size(), 3u);
  auto responses =
      service.ExtractBatch(requests, Deadline::After(&clock, 100.0));
  failpoints->Disarm("serve.batch.account");
  failpoints->SetClock(nullptr);
  manager.Stop();

  // Extraction itself finished (the deadline fired after pass 2), so the
  // responses are ordinary misses — but the relearn was withheld.
  EXPECT_EQ(samples_taken.load(), 0);
  EXPECT_EQ(store->Generation("site0"), 1);
  auto stats = service.StatsFor("site0");
  EXPECT_EQ(stats.relearns, 0);
  EXPECT_EQ(stats.relearn_attempts, 0);
  EXPECT_EQ(stats.requests, static_cast<int64_t>(requests.size()));
  auto snapshot = metrics.Snapshot();
  EXPECT_GE(snapshot.counters["serve.deadline_exceeded"], 1);
  EXPECT_EQ(snapshot.counters.count("serve.relearns"), 0u);
  EXPECT_EQ(snapshot.counters.count("serve.relearn_attempts"), 0u);
  for (const auto& response : responses) {
    EXPECT_EQ(response.generation, 1);
  }
}

}  // namespace
}  // namespace thor::serve
