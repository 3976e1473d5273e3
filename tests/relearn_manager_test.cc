#include "src/serve/relearn_manager.h"

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/serve/extraction_service.h"
#include "src/util/failpoint.h"
#include "src/util/json.h"

namespace thor::serve {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("thor_relearn_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// One simulated fleet plus a registry learned from fleet[0] — same world
// the extraction-service tests use.
struct SiteWorld {
  std::vector<deepweb::DeepWebSite> fleet;
  core::TemplateRegistry registry;

  static SiteWorld Make(int num_sites = 1, uint64_t drift_seed = 0) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = num_sites;
    fleet_options.drift.seed = drift_seed;
    SiteWorld world{deepweb::GenerateSiteFleet(fleet_options), {}};
    auto pages = world.Sample(0);
    auto result = core::RunThor(pages, core::ThorOptions{});
    EXPECT_TRUE(result.ok());
    world.registry = core::TemplateRegistry::Learn(pages, *result);
    EXPECT_FALSE(world.registry.empty());
    return world;
  }

  std::vector<core::Page> Sample(int index, uint64_t seed = 1234) const {
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = seed;
    return core::ToPages(deepweb::BuildSiteSample(
        fleet[static_cast<size_t>(index)], probe));
  }

  std::vector<ExtractionService::Request> FreshRequests(
      int index, const std::string& site_name) {
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

// A sampler that parks its worker until the test says go — the
// deterministic way to hold jobs "running"/"pending" while the queue is
// poked from the outside.
struct GatedSampler {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  int started = 0;

  RelearnManager::SampleProvider Provider() {
    return [this](const std::string&, uint64_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
      return std::vector<core::Page>{};
    };
  }
  void AwaitStarted(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(RelearnManagerTest, BackgroundRelearnServesTheNextBatchWithoutStalls) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("next_batch"));
  ASSERT_TRUE(store.ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           return world.Sample(0);
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.relearn_manager = &manager;
  // Window wider than the batch: exactly one learn-once enqueue can
  // happen, so the attempt accounting below is exact.
  options.relearn_min_requests = 40;
  ExtractionService service(&*store, options);

  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 3u);

  // Batch 1: unknown site — every request is a plain miss, the learn-once
  // relearn is only *enqueued*. The serving path never stalls.
  auto first = service.ExtractBatch(requests);
  for (const auto& response : first) {
    EXPECT_EQ(response.source, ExtractionService::Source::kMiss);
  }

  // Batch 2: the rendezvous adopts the promoted generation before any
  // request resolves, so the same pages now serve as template hits.
  auto second = service.ExtractBatch(requests);
  int hits = 0;
  for (const auto& response : second) {
    if (response.source != ExtractionService::Source::kTemplate) continue;
    ++hits;
    EXPECT_EQ(response.generation, 1);
  }
  EXPECT_GE(hits, static_cast<int>(requests.size()) - 1);

  manager.Stop();
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters["serve.relearns"], 1);
  EXPECT_EQ(snapshot.counters["serve.canary.promotions"], 1);
  EXPECT_EQ(snapshot.counters["serve.relearn_attempts"], 1);
  EXPECT_EQ(snapshot.histograms["serve.relearn_latency_ms"].total(), 1);
  EXPECT_EQ(service.StatsFor("site0").relearns, 1);
  EXPECT_EQ(service.StatsFor("site0").relearn_attempts, 1);
}

TEST(RelearnManagerTest, EnqueueDeduplicatesPerSite) {
  auto store = TemplateStore::Open(FreshDir("dedup"));
  ASSERT_TRUE(store.ok());
  GatedSampler gate;
  RelearnManager manager(&*store, {}, gate.Provider());

  EXPECT_EQ(manager.Enqueue("siteA", 1), RelearnManager::Enqueued::kAccepted);
  gate.AwaitStarted(1);
  // Still in flight: a second trigger for the same site is a no-op.
  EXPECT_EQ(manager.Enqueue("siteA", 2), RelearnManager::Enqueued::kDuplicate);
  EXPECT_EQ(manager.Enqueue("siteB", 2), RelearnManager::Enqueued::kAccepted);
  gate.Release();
  auto ready = manager.TakeReady(2);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].site, "siteA");
  EXPECT_EQ(ready[0].ticket, 1u);
  EXPECT_EQ(ready[1].site, "siteB");
  // Null samples: the jobs fail benignly — neither promoted nor rolled
  // back, and nothing touched the store.
  EXPECT_FALSE(ready[0].promoted);
  EXPECT_FALSE(ready[0].rolled_back);
  EXPECT_EQ(store->Generation("siteA"), 0);
  manager.Stop();
}

TEST(RelearnManagerTest, OverflowShedsOldestPendingAndFreesItsTicket) {
  auto store = TemplateStore::Open(FreshDir("shed"));
  ASSERT_TRUE(store.ok());
  MetricsRegistry metrics;
  GatedSampler gate;
  RelearnManagerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.metrics = &metrics;
  RelearnManager manager(&*store, options, gate.Provider());

  // s1 occupies the single worker; s2, s3 fill the pending queue.
  EXPECT_EQ(manager.Enqueue("s1", 1), RelearnManager::Enqueued::kAccepted);
  gate.AwaitStarted(1);
  EXPECT_EQ(manager.Enqueue("s2", 2), RelearnManager::Enqueued::kAccepted);
  EXPECT_EQ(manager.Enqueue("s3", 3), RelearnManager::Enqueued::kAccepted);
  EXPECT_EQ(manager.queue_depth(), 2u);
  // Overload: s4 displaces the *oldest* pending job (s2 — the stalest
  // drift evidence), not the newcomer.
  EXPECT_EQ(manager.Enqueue("s4", 4), RelearnManager::Enqueued::kAccepted);
  EXPECT_EQ(manager.queue_depth(), 2u);
  EXPECT_EQ(metrics.Snapshot().counters["serve.relearn_shed"], 1);

  gate.Release();
  // The shed job's ticket left the rendezvous: TakeReady(4) must not wait
  // for a job that will never run.
  auto ready = manager.TakeReady(4);
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0].site, "s1");
  EXPECT_EQ(ready[1].site, "s3");
  EXPECT_EQ(ready[2].site, "s4");
  manager.Stop();
}

TEST(RelearnManagerTest, TakeReadyHonorsTheTicketBound) {
  auto store = TemplateStore::Open(FreshDir("bound"));
  ASSERT_TRUE(store.ok());
  GatedSampler gate;
  RelearnManager manager(&*store, {}, gate.Provider());

  EXPECT_EQ(manager.Enqueue("siteA", 5), RelearnManager::Enqueued::kAccepted);
  gate.AwaitStarted(1);
  // No unfinished job at or below ticket 4: returns immediately, empty,
  // even though a later job is still running.
  EXPECT_TRUE(manager.TakeReady(4).empty());
  gate.Release();
  auto ready = manager.TakeReady(5);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].ticket, 5u);
  manager.Stop();
}

TEST(RelearnManagerTest, PoisonedCanaryRollsBackAndLiveGenerationKeepsServing) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("poison"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           return world.Sample(0, /*seed=*/999);
                         });
  // Give the canary a shadow corpus the live generation serves well.
  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 3u);
  for (const auto& request : requests) {
    manager.ObservePage("site0", request.html);
  }

  auto* failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints->Arm("canary.poison", "error").ok());
  EXPECT_EQ(manager.Enqueue("site0", 1), RelearnManager::Enqueued::kAccepted);
  auto ready = manager.TakeReady(1);
  failpoints->Disarm("canary.poison");

  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].rolled_back);
  EXPECT_FALSE(ready[0].promoted);
  // Auto-rollback committed nothing: the superseded generation is still
  // the live one, on disk and for every future cache load.
  EXPECT_EQ(store->Generation("site0"), 1);
  auto snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters["serve.canary.rollbacks"], 1);
  EXPECT_EQ(snapshot.counters.count("serve.relearns"), 0u);
  EXPECT_EQ(snapshot.counters.count("serve.canary.promotions"), 0u);
  manager.Stop();
}

TEST(RelearnManagerTest, QualityRegressionRollsBackWithoutAnyFailpoint) {
  // The relearn "succeeds" — but against the wrong site: a registry
  // learned from site1's pages cannot locate site0's recent traffic, so
  // the canary scores far below the live generation and must lose.
  SiteWorld world = SiteWorld::Make(/*num_sites=*/2);
  auto store = TemplateStore::Open(FreshDir("regress"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           return world.Sample(1);
                         });
  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 3u);
  for (const auto& request : requests) {
    manager.ObservePage("site0", request.html);
  }

  EXPECT_EQ(manager.Enqueue("site0", 1), RelearnManager::Enqueued::kAccepted);
  auto ready = manager.TakeReady(1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].rolled_back);
  EXPECT_EQ(store->Generation("site0"), 1);
  EXPECT_EQ(metrics.Snapshot().counters["serve.canary.rollbacks"], 1);
  manager.Stop();
}

TEST(RelearnManagerTest, DeadlineOverrunCommitsNothing) {
  SiteWorld world = SiteWorld::Make();
  auto store = TemplateStore::Open(FreshDir("deadline"));
  ASSERT_TRUE(store.ok());

  MetricsRegistry metrics;
  SimulatedClock clock;
  RelearnManagerOptions options;
  options.metrics = &metrics;
  options.clock = &clock;
  options.relearn_deadline_ms = 50.0;
  RelearnManager manager(&*store, options,
                         [&](const std::string&, uint64_t) {
                           clock.SleepMs(500.0);  // probing eats the budget
                           return world.Sample(0);
                         });

  EXPECT_EQ(manager.Enqueue("site0", 1), RelearnManager::Enqueued::kAccepted);
  auto ready = manager.TakeReady(1);
  ASSERT_EQ(ready.size(), 1u);
  // PR-5 semantics carried into the background: the overrun aborts with
  // nothing committed — no generation, no serve.relearns, no canary
  // verdict of either kind.
  EXPECT_FALSE(ready[0].promoted);
  EXPECT_FALSE(ready[0].rolled_back);
  EXPECT_EQ(store->Generation("site0"), 0);
  auto snapshot = metrics.Snapshot();
  EXPECT_GE(snapshot.counters["serve.deadline_exceeded"], 1);
  EXPECT_EQ(snapshot.counters.count("serve.relearns"), 0u);
  EXPECT_EQ(snapshot.histograms["serve.relearn_latency_ms"].total(), 1);
  manager.Stop();
}

TEST(RelearnManagerTest, StopCancelsPendingWorkAndUnblocksTheRendezvous) {
  auto store = TemplateStore::Open(FreshDir("stop"));
  ASSERT_TRUE(store.ok());
  GatedSampler gate;
  RelearnManagerOptions options;
  options.workers = 1;
  RelearnManager manager(&*store, options, gate.Provider());

  EXPECT_EQ(manager.Enqueue("s1", 1), RelearnManager::Enqueued::kAccepted);
  gate.AwaitStarted(1);
  EXPECT_EQ(manager.Enqueue("s2", 2), RelearnManager::Enqueued::kAccepted);
  gate.Release();
  manager.Stop();
  EXPECT_EQ(manager.queue_depth(), 0u);
  // A stopped manager neither blocks the rendezvous (this returns
  // immediately, whatever managed to finish) nor accepts new work.
  (void)manager.TakeReady(100);
  EXPECT_TRUE(manager.TakeReady(100).empty());
  EXPECT_EQ(manager.Enqueue("s3", 3), RelearnManager::Enqueued::kRejected);
}

// Satellite: concurrent ExtractBatch streams on the same site while the
// background worker relearns and promotes it. Run under TSAN in CI; the
// assertions below check that no reader ever sees a torn generation —
// every template hit pairs a valid pagelet with a committed generation,
// across the promotion race.
TEST(RelearnManagerTest, ConcurrentBatchesSurviveCanaryPromotionRaces) {
  SiteWorld world = SiteWorld::Make(/*num_sites=*/2);
  auto store = TemplateStore::Open(FreshDir("race"));
  ASSERT_TRUE(store.ok());
  // Stale knowledge: site0's stored registry is asked to serve site1's
  // pages, so the drift detector trips and background relearns (of the
  // right template) promote mid-stream.
  ASSERT_TRUE(store->Put("site0", world.registry).ok());

  MetricsRegistry metrics;
  RelearnManagerOptions manager_options;
  manager_options.metrics = &metrics;
  RelearnManager manager(&*store, manager_options,
                         [&](const std::string&, uint64_t) {
                           return world.Sample(1);
                         });
  ServiceOptions options;
  options.metrics = &metrics;
  options.relearn_manager = &manager;
  options.relearn_min_requests = 4;
  ExtractionService service(&*store, options);

  auto requests = world.FreshRequests(1, "site0");
  ASSERT_GE(requests.size(), 3u);
  constexpr int kBatchesPerThread = 6;
  auto stream = [&] {
    for (int i = 0; i < kBatchesPerThread; ++i) {
      auto responses = service.ExtractBatch(requests);
      ASSERT_EQ(responses.size(), requests.size());
      for (const auto& response : responses) {
        if (response.source == ExtractionService::Source::kTemplate) {
          // Whichever generation served, it was a whole one.
          EXPECT_FALSE(response.pagelet_path.empty());
          EXPECT_GE(response.generation, 1);
        }
      }
    }
  };
  std::thread other(stream);
  stream();
  other.join();
  manager.Stop();

  auto stats = service.StatsFor("site0");
  EXPECT_EQ(stats.requests,
            static_cast<int64_t>(2 * kBatchesPerThread * requests.size()));
  EXPECT_GE(stats.relearns, 1);
  // After the promoted generation is adopted, the tail of the stream
  // serves hits again.
  EXPECT_GE(stats.hits, 1);
}

TEST(RelearnManagerTest, BackgroundModeIsByteIdenticalAcrossThreadCounts) {
  SiteWorld world = SiteWorld::Make();
  auto requests = world.FreshRequests(0, "site0");
  ASSERT_GE(requests.size(), 3u);

  std::vector<std::string> transcripts;
  for (int threads : {1, 4}) {
    auto store = TemplateStore::Open(
        FreshDir("det_" + std::to_string(threads)));
    ASSERT_TRUE(store.ok());
    RelearnManager manager(&*store, {},
                           [&](const std::string&, uint64_t) {
                             return world.Sample(0);
                           });
    ServiceOptions options;
    options.threads = threads;
    options.relearn_manager = &manager;
    options.relearn_min_requests = 40;  // one learn-once job per run
    ExtractionService service(&*store, options);
    std::string transcript;
    for (int batch = 0; batch < 3; ++batch) {
      transcript += Serialized(service.ExtractBatch(requests));
    }
    manager.Stop();
    transcripts.push_back(std::move(transcript));
  }
  // The ticketed rendezvous pins relearn visibility to stream positions:
  // batch 1 misses, batches 2-3 hit — bit for bit, at any thread count.
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

}  // namespace
}  // namespace thor::serve
