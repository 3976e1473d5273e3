#include "thorbench/src/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/net/sim_site_server.h"
#include "src/serve/relearn_manager.h"
#include "src/serve/template_store.h"
#include "src/serve/wire.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "thorbench/src/learn.h"
#include "thorbench/src/loadgen.h"
#include "thorbench/src/serve_stack.h"
#include "thorbench/src/spans.h"
#include "thorbench/src/stats.h"

namespace thorbench {
namespace {

namespace fs = std::filesystem;
using thor::serve::ExtractionService;
using Protocol = OpenLoopClient::Protocol;

// --- fixed workload parameters ----------------------------------------------

/// Set-up is repeated and its median reported, so work moved into set-up
/// shows as a set-up regression instead of vanishing from the timed phase.
constexpr int kSetupRepeats = 3;
/// The serving target (ROADMAP): p99 at or under 2 ms.
constexpr double kP99LimitMs = 2.0;
/// Rung judged on saturation only: failures, backlog, generator.
constexpr double kNoLimit = 1e300;
/// A phase whose requests went out later than this at p99 measured the
/// generator, not the server.
constexpr double kLateLimitMs = 1.0;
/// thord's default batch size.
constexpr int kBatch = 32;
/// Connections are capped at the core count; queue depth comes from
/// pipelining, not from more connections.
constexpr int kMaxConnections = 4;

// serve_hit
constexpr int kHitSites = 16;
/// Reference rate: a fixed number near half the capacity this host
/// measured, so p50/p99 describe a loaded but unsaturated server.
constexpr double kHitReferenceRps = 8000.0;
/// Share of --seconds spent at the reference rate, and the number of
/// chunks it is spread over.
constexpr double kReferenceShare = 0.3;
/// Share of --seconds the ladder walk may take.
constexpr double kLadderShare = 0.7;
constexpr int kReferenceChunks = 12;
/// Offered-rate ladder: kLadderBase * kLadderStep^k, walked upward from
/// kLadderFirst in coarse strides of kLadderStride, then one rung at a time
/// from the last coarse pass, until the server saturates.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderFirst = 34;
constexpr int kLadderStride = 10;
constexpr int kLadderLast = 90;

// serve_drift
constexpr int kDriftSites = 24;
/// Fewer resident sites than sites in rotation, so store loads and
/// template compiles land on the request path.
constexpr size_t kDriftCache = 8;
constexpr double kDriftRps = 400.0;
/// Share of no-match and error pages in each request round. The drift
/// detector counts a correct no-match response as a miss, so a natural
/// probe round (25-35% no-match pages) keeps popular sites near the warn
/// line and they relearn several times a second whether or not they
/// redesigned; the relearn count, and with it every latency, then varies
/// run to run. At 10% only redesigns trigger relearns.
constexpr double kDriftMissShare = 0.1;
constexpr double kDriftZipf = 1.0;
/// Popularity ranks of the sites that redesign: popular enough that drift
/// is detected within a fraction of a second, none of them the top site.
/// Two sites redesigning twice keep the serving time spent waiting on
/// relearns near 2%, well inside the p90, so host noise cannot flip the
/// p90 into the stall mode (four sites redesigning four times sat at about
/// 9%, two sites four times at 4-9% depending on host speed).
constexpr int kDriftRanks[] = {1, 3};
constexpr int kDriftEvents = 2;
constexpr double kDriftMutation = 0.9;
/// Probe words per (site, epoch) request round.
constexpr int kDriftRoundWords = 40;

// learn_cold
/// Sites learned per second of --seconds (fixed work per run, so the tail
/// percentile is the same on every run of one length).
constexpr double kLearnSitesPerSecond = 12.0;
constexpr int kLearnVerifySites = 8;
constexpr double kLearnVerifyRps = 2000.0;

/// Every workload runs against the same simulated fleet. The serving
/// workloads also learn and replay the same probe rounds, so --seed varies
/// their traffic (arrivals, page picks, popularity) and not their corpus:
/// seeding the corpus made per-request cost swing with each seed's page
/// mix. On learn_cold the seed varies the probe words, its only input.
constexpr uint64_t kFleetSeed = 7;

constexpr size_t kChromeSpans = 20000;
/// Samples per tail window: 2000 leaves 20 samples beyond each window's
/// p99.
constexpr size_t kTailWindow = 2000;
/// Ladder rungs judge p99 over windows of 1000 samples (10 beyond each)
/// and last long enough for at least three windows, so one stall of the
/// host cannot fail a rung on its own.
constexpr size_t kRungWindow = 1000;
constexpr int kRungWindows = 3;
/// A failing rung is run up to this many times before it ends the walk.
constexpr int kRungAttempts = 3;

// --- small helpers -----------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Connections() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, kMaxConnections));
}

std::string SiteName(int index) { return "site" + std::to_string(index); }

double LadderRate(int k) { return kLadderBase * std::pow(kLadderStep, k); }

std::string Fmt(double value, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

/// Percentile of a bucketed histogram: the upper bound of the bucket that
/// holds the p-th observation (0 when empty).
double HistogramPercentile(const thor::HistogramSnapshot& h, double p) {
  const int64_t total = h.total();
  if (total == 0) return 0.0;
  const int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * total));
  int64_t seen = 0;
  for (size_t b = 0; b < h.counts.size(); ++b) {
    seen += h.counts[b];
    if (seen >= rank) {
      return b < h.bounds.size() ? h.bounds[b]
                                 : (h.bounds.empty() ? 0.0 : h.bounds.back());
    }
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

/// One request page with its ground truth.
struct RequestPage {
  int site = 0;
  int epoch = 0;
  std::string html;
  /// PathString of the simulator's QA-Pagelet root; empty on no-match and
  /// error pages.
  std::string truth;
};

/// A probe round of `site` replayed as request pages: a plan disjoint from
/// the training plan (different word seed).
std::vector<RequestPage> HeldOutRound(const thor::deepweb::DeepWebSite& site,
                                      int index, int epoch, uint64_t seed,
                                      int words) {
  thor::deepweb::ProbeOptions plan;
  plan.seed = seed * 1000003u + 99u + static_cast<uint64_t>(index);
  if (words > 0) {
    plan.num_dictionary_words = words;
    plan.num_nonsense_words = std::max(1, words / 10);
  }
  auto sample = thor::deepweb::BuildSiteSample(site, plan);
  std::vector<RequestPage> pages;
  pages.reserve(sample.pages.size());
  for (auto& page : sample.pages) {
    RequestPage request;
    request.site = index;
    request.epoch = epoch;
    request.truth = page.pagelet_node == thor::html::kInvalidNode
                        ? std::string()
                        : page.tree.PathString(page.pagelet_node);
    request.html = std::move(page.html);
    pages.push_back(std::move(request));
  }
  return pages;
}

std::string RequestLine(int site, const std::string& html) {
  thor::JsonWriter json;
  json.BeginObject();
  json.Key("site").String(SiteName(site));
  json.Key("html").String(html);
  json.EndObject();
  return json.str();
}

/// Source names that count as a served template hit.
bool IsHit(ExtractionService::Source source) {
  return source == ExtractionService::Source::kTemplate ||
         source == ExtractionService::Source::kRelearn;
}

// --- the benchmark world -----------------------------------------------------

/// Everything one set-up builds: the simulated fleet behind its HTTP front
/// door, the template store, the learned sites, the pre-rendered request
/// payloads, and (for serving phases) the thord stack and the generator.
/// Torn down in dependency order.
struct World {
  explicit World(const RunOptions& options) : opt(options) {}
  ~World() {
    client.reset();
    stack.reset();
    if (manager) manager->Stop();
    manager.reset();
    if (sim) sim->Stop();
    sim.reset();
    store.reset();
    std::error_code ignored;
    fs::remove_all(store_dir, ignored);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const RunOptions& opt;
  thor::MetricsRegistry metrics;
  SpanLog spans;

  std::vector<thor::deepweb::DeepWebSite> fleet;
  std::unique_ptr<thor::net::SimSiteServer> sim;
  uint16_t sim_port = 0;
  std::string store_dir;
  std::optional<thor::serve::TemplateStore> store;

  // Learning (set-up learning for serving workloads, the timed loop for
  // learn_cold).
  std::vector<double> learn_ms;
  thor::core::PrecisionRecall learn_pr;
  int64_t learn_attempted = 0;
  int64_t learn_failed = 0;

  // Serving.
  Protocol protocol = Protocol::kNdjson;
  std::vector<RequestPage> pages;
  std::vector<std::string> payloads;
  /// Reference response line per page (serve_hit, learn_cold).
  std::vector<std::string> expected;
  std::unique_ptr<thor::serve::RelearnManager> manager;
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<OpenLoopClient> client;
  std::map<uint64_t, int> tag_to_conn;
  std::vector<std::unique_ptr<PhaseResult>> phases;
  /// QueueDepth() samples (traced runs), with their times.
  std::vector<std::pair<double, double>> queue_samples;
  double last_queue_sample = 0.0;

  thor::Status Boot(const thor::deepweb::FleetOptions& fleet_options,
                    const std::string& tag) {
    fleet = thor::deepweb::GenerateSiteFleet(fleet_options);
    sim = std::make_unique<thor::net::SimSiteServer>(&fleet);
    auto port = sim->Start();
    if (!port.ok()) return port.status();
    sim_port = *port;
    store_dir = (fs::path(opt.work_dir) / ("store-" + tag)).string();
    fs::remove_all(store_dir);
    auto opened = thor::serve::TemplateStore::Open(store_dir);
    if (!opened.ok()) return opened.status();
    store.emplace(std::move(*opened));
    return thor::Status::OK();
  }

  /// Learns fleet members [0, count) into the store (set-up learning).
  void LearnAll(int count) {
    SiteLearner learner(sim_port, &*store, &metrics,
                        opt.traced ? &spans : nullptr);
    for (int i = 0; i < count; ++i) {
      LearnOutcome outcome =
          learner.Learn(i, SiteName(i), TrainPlan(kFleetSeed, i),
                        static_cast<uint64_t>(i));
      ++learn_attempted;
      if (!outcome.ok) {
        ++learn_failed;
        continue;
      }
      learn_ms.push_back(outcome.latency_ms);
      learn_pr.Add(outcome.pr);
    }
  }

  /// Renders payloads for `pages` and, when `with_expected`, the reference
  /// response lines: an in-process ExtractionService over the same store,
  /// ExtractBatch in batches, rendered by serve::ResponseToJson.
  void Render(bool with_expected) {
    payloads.clear();
    for (const RequestPage& page : pages) {
      payloads.push_back(
          RenderRequest(protocol, RequestLine(page.site, page.html)));
    }
    if (!with_expected) return;
    ExtractionService reference(&*store, thor::serve::ServiceOptions{});
    expected.clear();
    for (size_t begin = 0; begin < pages.size(); begin += kBatch) {
      std::vector<ExtractionService::Request> batch;
      for (size_t i = begin; i < std::min(pages.size(), begin + kBatch); ++i) {
        batch.push_back({SiteName(pages[i].site), pages[i].html});
      }
      auto responses = reference.ExtractBatch(batch);
      for (size_t i = 0; i < responses.size(); ++i) {
        expected.push_back(
            thor::serve::ResponseToJson(batch[i].site, responses[i]));
      }
    }
  }

  thor::Status StartServing(thor::serve::ServiceOptions service_options) {
    service_options.metrics = &metrics;
    stack = std::make_unique<ServeStack>(&*store, service_options, kBatch,
                                         &metrics, opt.traced);
    auto port = stack->Start();
    if (!port.ok()) return port.status();
    client = std::make_unique<OpenLoopClient>(protocol, Connections());
    return client->Connect(*port);
  }

  PhaseResult& RunPhase(const std::vector<Scheduled>& schedule,
                        const OpenLoopClient::Check& check,
                        const OpenLoopClient::Tick& tick = nullptr,
                        const std::vector<int>* conn_of = nullptr) {
    OpenLoopClient::Tick sampled = [&](double now, double start) {
      if (tick) tick(now, start);
      if (opt.traced && now - last_queue_sample >= 1.0) {
        last_queue_sample = now;
        queue_samples.push_back(
            {now, static_cast<double>(stack->loop().QueueDepth())});
      }
    };
    phases.push_back(std::make_unique<PhaseResult>(
        client->Run(schedule, payloads, check, sampled, 5000.0, conn_of)));
    return *phases.back();
  }

  /// Warm-up part one: one request per connection, alone, so the server
  /// tag of each client connection is observed rather than assumed.
  thor::Status MapConnections(const OpenLoopClient::Check& check) {
    std::vector<std::vector<uint64_t>> seen(
        static_cast<size_t>(client->connections()));
    for (int c = 0; c < client->connections(); ++c) {
      const size_t before = opt.traced ? stack->emissions().size() : 0;
      std::vector<Scheduled> one = {{0.0, static_cast<uint32_t>(c) %
                                              static_cast<uint32_t>(
                                                  payloads.size())}};
      std::vector<int> pin = {c};
      PhaseResult& phase = RunPhase(one, check, nullptr, &pin);
      if (phase.failures != 0) {
        return thor::Status::Internal("warm-up request failed on connection " +
                                      std::to_string(c));
      }
      if (opt.traced) {
        auto emissions = stack->emissions();
        for (size_t e = before; e < emissions.size(); ++e) {
          seen[static_cast<size_t>(c)].push_back(emissions[e].tag);
        }
      }
    }
    if (!opt.traced) return thor::Status::OK();
    std::string error;
    if (!MapTags(seen, &tag_to_conn, &error)) {
      return thor::Status::Internal("tag mapping: " + error);
    }
    return thor::Status::OK();
  }
};

// --- metrics shared by every workload ---------------------------------------

void AddEndToEnd(RunReport* report, double setup_s, double throughput,
                 double p50, double p90, double accuracy,
                 const thor::core::PrecisionRecall& pr, double peak_rss_mb) {
  report->end_to_end = {
      {"setup_s", "s", setup_s},
      {"throughput_per_s", "1/s", throughput},
      {"p50_ms", "ms", p50},
      {"p90_ms", "ms", p90},
      {"extract_accuracy", "ratio", accuracy},
      {"learn_precision", "ratio", pr.Precision()},
      {"learn_recall", "ratio", pr.Recall()},
      {"peak_rss_mb", "MiB", peak_rss_mb},
  };
}

double Late99(const PhaseResult& phase) { return Percentile(phase.late_ms, 99.0); }

/// Concatenation of several phases (records and lateness in order), for
/// statistics over a reporting phase that ran in chunks.
PhaseResult Concat(const std::vector<const PhaseResult*>& parts) {
  PhaseResult all;
  if (parts.empty()) return all;
  all.start_ms = parts.front()->start_ms;
  all.end_ms = parts.back()->end_ms;
  for (const PhaseResult* part : parts) {
    all.records.insert(all.records.end(), part->records.begin(),
                       part->records.end());
    all.late_ms.insert(all.late_ms.end(), part->late_ms.begin(),
                       part->late_ms.end());
    all.failures += part->failures;
  }
  return all;
}

/// Per-layer metrics of one traced world. `windows` are the serving
/// phases the distributions describe.
void LayerMetrics(World& world, const std::vector<const PhaseResult*>& windows,
                  RunReport* report) {
  auto in_window = [&](double at) {
    for (const PhaseResult* window : windows) {
      if (at >= window->start_ms && at <= window->end_ms) return true;
    }
    return false;
  };
  double window_total_ms = 0.0;
  for (const PhaseResult* window : windows) {
    window_total_ms += window->end_ms - window->start_ms;
  }
  // Pair every server emission with the client request it answered: the
  // emission's connection tag names the client connection, and each
  // connection is answered in send order.
  const auto emissions = world.stack->emissions();
  const auto batches = world.stack->batches();
  const auto& sent = world.client->sent_log();
  std::vector<size_t> next(sent.size(), 0);
  std::vector<double> ingress, egress, emit_wait;
  int64_t unpaired = 0;
  for (const ServeStack::Emission& emission : emissions) {
    auto it = world.tag_to_conn.find(emission.tag);
    if (it == world.tag_to_conn.end()) {
      ++unpaired;
      continue;
    }
    const size_t conn = static_cast<size_t>(it->second);
    if (next[conn] >= sent[conn].size()) {
      ++unpaired;
      continue;
    }
    const OpenLoopClient::SentRef ref = sent[conn][next[conn]++];
    if (emission.batch < 0) {
      ++unpaired;
      continue;
    }
    const PhaseResult& phase = *world.phases[static_cast<size_t>(ref.phase)];
    if (std::find(windows.begin(), windows.end(), &phase) == windows.end()) {
      continue;
    }
    const Record& record = phase.records[ref.record];
    if (!record.answered) continue;
    const ServeStack::Batch& batch =
        batches[static_cast<size_t>(emission.batch)];
    // Request ids are unique across phases (and above learn-site ids).
    const uint64_t id =
        (static_cast<uint64_t>(ref.phase) + 1) << 32 | ref.record;
    const int root = world.spans.Add("request", id, record.sched_ms,
                                     record.recv_ms);
    world.spans.Add("net.ingress", id, record.sched_ms, batch.start_ms, root);
    world.spans.Add("serve.batch", id, batch.start_ms, batch.end_ms, root);
    world.spans.Add("server_loop.emit_wait", id, batch.end_ms,
                    emission.at_ms, root);
    world.spans.Add("net.egress", id, emission.at_ms, record.recv_ms, root);
    ingress.push_back(batch.start_ms - record.sched_ms);
    emit_wait.push_back(emission.at_ms - batch.end_ms);
    egress.push_back(record.recv_ms - emission.at_ms);
  }
  if (unpaired > 0) {
    report->notes.push_back("trace: " + std::to_string(unpaired) +
                            " emissions could not be paired with requests");
  }

  // Batches and queue depth inside the window.
  std::vector<double> batch_ms;
  double busy_ms = 0.0;
  int64_t batched = 0;
  for (const ServeStack::Batch& batch : batches) {
    if (!in_window(batch.start_ms)) continue;
    batch_ms.push_back(batch.end_ms - batch.start_ms);
    busy_ms += batch.end_ms - batch.start_ms;
    batched += batch.size;
  }
  std::vector<double> depth;
  for (const auto& [at, value] : world.queue_samples) {
    if (in_window(at)) depth.push_back(value);
  }
  const double window_ms = std::max(1e-9, window_total_ms);

  // Hot path and store, replayed through benchmark-owned instances.
  std::map<int, thor::core::CompiledTemplates> compiled;
  std::vector<double> load_ms, compile_ms;
  for (const RequestPage& page : world.pages) {
    if (compiled.count(page.site) != 0) continue;
    const double t0 = NowMs();
    auto loaded = world.store->Load(SiteName(page.site));
    const double t1 = NowMs();
    if (!loaded.ok()) {
      compiled[page.site] = {};
      continue;
    }
    compiled[page.site] =
        thor::core::CompiledTemplates::Compile(loaded->registry);
    const double t2 = NowMs();
    load_ms.push_back(t1 - t0);
    compile_ms.push_back(t2 - t1);
  }
  thor::core::HotExtractor hot;
  std::vector<double> parse_us, locate_us, extract_us;
  const size_t replay = std::min<size_t>(world.pages.size(), 2000);
  for (size_t i = 0; i < replay; ++i) {
    const RequestPage& page = world.pages[i];
    const auto& templates = compiled[page.site];
    const double t0 = NowMs();
    const auto& tree = hot.Parse(page.html);
    const double t1 = NowMs();
    auto located = hot.Locate(tree, templates);
    const double t2 = NowMs();
    (void)located;
    auto extracted = hot.Extract(page.html, templates);
    const double t3 = NowMs();
    (void)extracted;
    parse_us.push_back((t1 - t0) * 1000.0);
    locate_us.push_back((t2 - t1) * 1000.0);
    extract_us.push_back((t3 - t2) * 1000.0);
  }

  // Span totals (request trees and learn trees).
  const auto totals = world.spans.Totals();
  auto durations = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? std::vector<double>{} : it->second.durations_ms;
  };
  const auto snapshot = world.metrics.Snapshot();
  auto counter = [&](const std::string& name) {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  const auto loop_counters = world.stack->loop().counters();

  std::vector<double> put = durations("store.put");
  report->layers = {
      {"gen.late_p99_ms", "ms", Late99(Concat(windows))},
      {"ledger.serve_coverage", "ratio", world.spans.Coverage("request")},
      {"ledger.learn_coverage", "ratio", world.spans.Coverage("learn.site")},
      {"net.ingress_ms.p50", "ms", Percentile(ingress, 50.0)},
      {"net.ingress_ms.p99", "ms", Percentile(ingress, 99.0)},
      {"net.egress_ms.p50", "ms", Percentile(egress, 50.0)},
      {"net.egress_ms.p99", "ms", Percentile(egress, 99.0)},
      {"net.requests", "count", counter("net.requests")},
      {"net.bytes_in", "bytes", counter("net.bytes_in")},
      {"net.bytes_out", "bytes", counter("net.bytes_out")},
      {"server_loop.batches", "count", static_cast<double>(loop_counters.batches)},
      {"server_loop.batch_size_mean", "count",
       batch_ms.empty() ? 0.0
                        : static_cast<double>(batched) /
                              static_cast<double>(batch_ms.size())},
      {"server_loop.queue_depth_mean", "count", Mean(depth)},
      {"server_loop.shed", "count", static_cast<double>(loop_counters.shed)},
      {"server_loop.emit_wait_ms", "ms", Mean(emit_wait)},
      {"serve.batch_ms.p50", "ms", Percentile(batch_ms, 50.0)},
      {"serve.batch_ms.p99", "ms", Percentile(batch_ms, 99.0)},
      {"serve.us_per_req", "us",
       batched > 0 ? busy_ms * 1000.0 / static_cast<double>(batched) : 0.0},
      {"serve.consumer_busy", "ratio", busy_ms / window_ms},
      {"serve.template_hit", "count", counter("serve.template_hit")},
      {"serve.template_miss", "count", counter("serve.template_miss")},
      {"serve.low_confidence", "count", counter("serve.low_confidence")},
      {"serve.relearns", "count", counter("serve.relearns")},
      {"serve.canary.promotions", "count", counter("serve.canary.promotions")},
      {"serve.canary.rollbacks", "count", counter("serve.canary.rollbacks")},
      {"serve.relearn_shed", "count", counter("serve.relearn_shed")},
      {"html.hot_parse_us", "us", Percentile(parse_us, 50.0)},
      {"core.locate_us", "us", Percentile(locate_us, 50.0)},
      {"core.extract_us", "us", Percentile(extract_us, 50.0)},
      {"store.put_ms.p50", "ms", Percentile(put, 50.0)},
      {"store.put_ms.p99", "ms", Percentile(put, 99.0)},
      {"store.load_ms", "ms", Percentile(load_ms, 50.0)},
      {"store.compile_ms", "ms", Percentile(compile_ms, 50.0)},
      {"probe.site_ms", "ms", Percentile(durations("probe.site"), 50.0)},
      {"probe.attempts", "count", counter("probe.attempts")},
      {"probe.retries", "count", counter("probe.retries")},
      {"net.client.requests", "count", counter("net.client.requests")},
      {"net.client.reused", "count", counter("net.client.reused")},
      {"parse.site_ms", "ms", Percentile(durations("parse.site"), 50.0)},
      {"learn.thor_ms", "ms", Percentile(durations("learn.thor"), 50.0)},
      {"learn.registry_ms", "ms", Percentile(durations("learn.registry"), 50.0)},
      {"learn.phase1_ms", "ms", Percentile(durations("learn.phase1"), 50.0)},
      {"learn.rank_ms", "ms", Percentile(durations("learn.rank"), 50.0)},
      {"learn.phase2_ms", "ms", Percentile(durations("learn.phase2"), 50.0)},
      {"phase2.candidates_total", "count", counter("phase2.candidates_total")},
      {"phase2.sets_found", "count", counter("phase2.sets_found")},
  };
  auto relearn_hist = snapshot.histograms.find("serve.relearn_latency_ms");
  report->layers_extra = {
      {"serve.relearn_latency_ms.p50", "ms",
       relearn_hist == snapshot.histograms.end()
           ? 0.0
           : HistogramPercentile(relearn_hist->second, 50.0)},
  };

  for (const char* root : {"request", "learn.site"}) {
    const double coverage = world.spans.Coverage(root);
    report->notes.push_back(std::string("coverage of ") + root +
                            " time by named layers: " + Fmt(coverage, 4) +
                            (coverage >= 0.95 ? " (>= 0.95)" : " (< 0.95)"));
  }
  if (report->layers_extra[0].value == 0.0) {
    report->notes.push_back(
        "serve.relearn_latency_ms.p50: absent, no relearn ran in this "
        "workload");
  }

  // Self time per span name and per layer.
  std::map<std::string, double> layer_self;
  report->notes.push_back("self time by span (count, total ms, self ms):");
  for (const auto& [name, t] : totals) {
    layer_self[LayerOf(name)] += t.self_ms;
    report->notes.push_back("  " + name + ": " + std::to_string(t.count) +
                            ", " + Fmt(t.total_ms) + ", " + Fmt(t.self_ms));
  }
  report->notes.push_back("self time by layer (ms):");
  for (const auto& [layer, self] : layer_self) {
    report->notes.push_back("  " + layer + ": " + Fmt(self));
  }

  if (!world.opt.trace_path.empty()) {
    std::ofstream out(world.opt.trace_path);
    out << world.spans.ChromeJson(kChromeSpans) << "\n";
    report->notes.push_back("chrome trace: " + world.opt.trace_path);
  }
}

/// Times `kSetupRepeats` set-ups and keeps the last; returns the median.
template <typename Setup>
double RepeatedSetup(const RunOptions& options, std::unique_ptr<World>* kept,
                     const Setup& setup, std::string* error) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kept->reset();
    auto world = std::make_unique<World>(options);
    const double t0 = NowMs();
    thor::Status status = setup(*world, r);
    const double t1 = NowMs();
    if (!status.ok()) {
      *error = status.ToString();
      return 0.0;
    }
    seconds.push_back((t1 - t0) / 1000.0);
    *kept = std::move(world);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

/// Draws page indices uniformly.
std::function<uint32_t()> UniformPick(size_t n, uint64_t seed) {
  auto rng = std::make_shared<thor::Rng>(seed);
  return [rng, n] { return static_cast<uint32_t>(rng->UniformInt(n)); };
}

/// The byte-for-byte response check against the reference lines.
OpenLoopClient::Check ExpectedCheck(const World& world) {
  return [&world](const Record& record, size_t, int status,
                  std::string_view body) {
    return status == 200 && body == world.expected[record.payload];
  };
}

/// Serving accuracy of the reference lines: share of pages whose reference
/// response names the ground-truth pagelet (both empty counts).
std::vector<uint8_t> ExpectedCorrect(const World& world) {
  std::vector<uint8_t> correct(world.pages.size(), 0);
  for (size_t i = 0; i < world.pages.size(); ++i) {
    std::string site;
    auto parsed = thor::serve::ResponseFromJson(world.expected[i], &site);
    correct[i] = parsed.ok() && parsed->pagelet_path == world.pages[i].truth;
  }
  return correct;
}

double AccuracyOf(const PhaseResult& phase, const std::vector<uint8_t>& ok) {
  int64_t n = 0;
  int64_t good = 0;
  for (const Record& record : phase.records) {
    if (!record.answered) continue;
    ++n;
    good += ok[record.payload];
  }
  return n > 0 ? static_cast<double>(good) / static_cast<double>(n) : 0.0;
}

/// Windowed p99 lateness: high only when the generator ran behind through
/// most of the phase, not when one host stall delayed it once.
double WindowedLate99(const PhaseResult& phase) {
  return WindowedPercentile(phase.late_ms, kTailWindow, 99.0);
}

/// The generator fell behind when its windowed p99 lateness exceeds
/// kLateLimitMs and also half the latency p99 it is measuring: the tail
/// would then be mostly the generator's own delay. (Latency is timed from
/// the scheduled send, so smaller lateness only adds to what it measures.)
bool GeneratorLate(const PhaseResult& phase, double latency_p99_ms) {
  return WindowedLate99(phase) > std::max(kLateLimitMs, 0.5 * latency_p99_ms);
}

void CheckLate(const PhaseResult& phase, double latency_p99_ms,
               const std::string& what, RunReport* report) {
  const double late = Late99(phase);
  report->named.push_back({"gen.late_p99_ms", "ms", late});
  if (GeneratorLate(phase, latency_p99_ms)) {
    report->valid = false;
    report->invalid_reason = what + ": generator late (windowed p99 " +
                             Fmt(WindowedLate99(phase)) +
                             " ms) against latency p99 " +
                             Fmt(latency_p99_ms) + " ms";
  }
}

/// Latency percentile robust to a single stall (see WindowedPercentile).
double PhasePercentile(const PhaseResult& phase, double p,
                       size_t window = kTailWindow) {
  return WindowedPercentile(phase.LatenciesMs(), window, p);
}

// --- serve_hit ---------------------------------------------------------------

RunReport ServeHit(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<World> world;
  std::string error;
  const double setup_s = RepeatedSetup(
      options, &world,
      [&](World& w, int r) -> thor::Status {
        thor::deepweb::FleetOptions fleet_options;
        fleet_options.num_sites = kHitSites;
        fleet_options.seed = kFleetSeed;
        auto status = w.Boot(fleet_options, "hit" + std::to_string(r));
        if (!status.ok()) return status;
        w.LearnAll(kHitSites);
        for (int s = 0; s < kHitSites; ++s) {
          auto round = HeldOutRound(w.fleet[static_cast<size_t>(s)], s, 0,
                                    kFleetSeed, 0);
          for (auto& page : round) w.pages.push_back(std::move(page));
        }
        w.protocol = Protocol::kNdjson;
        w.Render(/*with_expected=*/true);
        status = w.StartServing(thor::serve::ServiceOptions{});
        if (!status.ok()) return status;
        status = w.MapConnections(ExpectedCheck(w));
        if (!status.ok()) return status;
        // Warm-up part two: a short burst at the reference rate.
        auto warm = PoissonSchedule(kHitReferenceRps, 500.0,
                                    options.seed ^ 0x5eed,
                                    UniformPick(w.pages.size(), options.seed));
        PhaseResult& phase = w.RunPhase(warm, ExpectedCheck(w));
        if (phase.failures != 0) {
          return thor::Status::Internal("warm-up responses failed the check");
        }
        return thor::Status::OK();
      },
      &error);
  if (!world) {
    report.valid = false;
    report.invalid_reason = "set-up failed: " + error;
    return report;
  }
  World& w = *world;
  const auto check = ExpectedCheck(w);
  const auto correct = ExpectedCorrect(w);
  const double rung_base_ms = options.seconds * 40.0;
  // The walk stops when its share of --seconds is spent; capacity is then
  // the last pass so far.
  const double ladder_deadline = NowMs() + options.seconds * 1000.0 *
                                               kLadderShare;

  // The reference rate runs in chunks spread over the whole run, one
  // after every ladder rung: the host has slow periods lasting seconds,
  // and spreading the samples keeps one of them from deciding the run.
  std::vector<const PhaseResult*> reference_parts;
  const double chunk_ms = options.seconds * kReferenceShare * 1000.0 /
                          kReferenceChunks;
  auto reference_chunk = [&] {
    if (reference_parts.size() >= static_cast<size_t>(kReferenceChunks)) {
      return;
    }
    const uint64_t n = reference_parts.size();
    auto schedule = PoissonSchedule(
        kHitReferenceRps, chunk_ms, options.seed * 7919 + n,
        UniformPick(w.pages.size(), options.seed * 104729 + n));
    reference_parts.push_back(&w.RunPhase(schedule, check));
  };
  reference_chunk();
  double peak_rss_mb = 0.0;

  // The ladder: coarse strides up to the first failure, then single rungs
  // from the last coarse pass.
  std::map<int, Rung> rungs;
  int64_t ladder_failures = 0;
  auto run_rung = [&](int k) {
    const double rate = LadderRate(k);
    const double rung_ms = std::max(
        rung_base_ms, 1000.0 * kRungWindows * kRungWindow / rate);
    auto schedule = PoissonSchedule(rate, rung_ms, options.seed * 131 + k,
                                    UniformPick(w.pages.size(),
                                                options.seed * 17 + k));
    // Peak memory before the first rung, i.e. of set-up and the reference
    // rate; overload rungs buffer in proportion to how far they climb.
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
    PhaseResult& phase = w.RunPhase(schedule, check);
    Rung rung;
    rung.offered_rps = rate;
    auto latencies = phase.LatenciesMs();
    rung.samples = static_cast<int64_t>(latencies.size());
    rung.achieved_rps = static_cast<double>(latencies.size()) / (rung_ms / 1000.0);
    rung.p99_ms = PhasePercentile(phase, 99.0, kRungWindow);
    rung.failures = phase.failures;
    rung.backlog_growing = BacklogGrowing(
        phase.outstanding, 32.0 + 0.01 * rate * rung_ms / 1000.0);
    rung.valid = !GeneratorLate(phase, rung.p99_ms);
    ladder_failures += phase.failures;
    report.attempted += static_cast<int64_t>(phase.records.size());
    rungs[k] = rung;
    report.notes.push_back(
        "rung " + Fmt(rate, 0) + " req/s: achieved " +
        Fmt(rung.achieved_rps, 0) + ", p99 " + Fmt(rung.p99_ms) + " ms, n " +
        std::to_string(rung.samples) + ", failures " +
        std::to_string(rung.failures) + ", backlog " +
        (rung.backlog_growing ? "growing" : "flat") + ", late p99 " +
        Fmt(Late99(phase)) + " ms" +
        (RungPasses(rung, kNoLimit) ? "" : "  SATURATED") +
        (RungPasses(rung, kP99LimitMs) ? "" : "  OVER-P99"));
    // The walk climbs to saturation; the p99 target is judged afterwards
    // from the same rungs.
    const bool passed = RungPasses(rung, kNoLimit);
    reference_chunk();
    return passed;
  };
  // A failing rung is run again before it ends the walk, so a burst of
  // host noise does not decide the capacity; the last attempt stands.
  bool out_of_time = false;
  auto passes = [&](int k) {
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      if (NowMs() > ladder_deadline) {
        out_of_time = true;
        return false;
      }
      if (run_rung(k)) return true;
    }
    return false;
  };
  int last_pass = -1;
  int first_fail = kLadderLast + 1;
  for (int k = kLadderFirst; k <= kLadderLast; k += kLadderStride) {
    if (!passes(k)) {
      first_fail = k;
      break;
    }
    last_pass = k;
  }
  for (int j = std::max(kLadderFirst, last_pass + 1); j < first_fail; ++j) {
    if (!passes(j)) break;
  }
  if (out_of_time) {
    report.notes.push_back("ladder: time budget spent before the walk ended");
  }
  std::vector<Rung> ordered;
  for (const auto& [index, rung] : rungs) ordered.push_back(rung);
  auto achieved = [&](int index) {
    return index >= 0 ? ordered[static_cast<size_t>(index)].achieved_rps : 0.0;
  };
  const double saturation = achieved(CapacityRung(ordered, kNoLimit));
  const double capacity = achieved(CapacityRung(ordered, kP99LimitMs));
  if (saturation == 0.0) {
    report.valid = false;
    report.invalid_reason = "the first ladder rung already saturated";
  }

  while (reference_parts.size() < static_cast<size_t>(kReferenceChunks)) {
    reference_chunk();
  }
  const PhaseResult reference = Concat(reference_parts);
  report.attempted += static_cast<int64_t>(reference.records.size());
  report.failed = ladder_failures + reference.failures + w.learn_failed;
  report.attempted += w.learn_attempted;
  auto latencies = reference.LatenciesMs();
  const double p50 = Percentile(latencies, 50.0);
  const double p90 = PhasePercentile(reference, 90.0);
  const double p99 = PhasePercentile(reference, 99.0);
  if (SamplesBeyond(static_cast<int64_t>(latencies.size()), 99.0) < 10) {
    report.valid = false;
    report.invalid_reason = "fewer than 10 samples beyond p99";
  }
  const double accuracy = AccuracyOf(reference, correct);
  AddEndToEnd(&report, setup_s, saturation, p50, p90, accuracy, w.learn_pr,
              peak_rss_mb);
  report.named = {
      {"capacity_rps", "req/s", capacity},
      {"saturation_rps", "req/s", saturation},
      {"p90_ms", "ms", p90},
      {"p50_ms", "ms", p50},
      {"p99_ms", "ms", p99},
      {"fail_ratio", "ratio",
       static_cast<double>(report.failed) /
           static_cast<double>(std::max<int64_t>(1, report.attempted))},
      {"extract_accuracy", "ratio", accuracy},
      {"reference_rps", "req/s", kHitReferenceRps},
      {"reference_samples", "count", static_cast<double>(latencies.size())},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"setup_s", "s", setup_s},
  };
  CheckLate(reference, p99, "reference phase", &report);
  if (options.traced) LayerMetrics(w, reference_parts, &report);
  return report;
}

// --- serve_drift -------------------------------------------------------------

thor::deepweb::FleetOptions DriftFleetOptions() {
  thor::deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = kDriftSites;
  fleet_options.seed = kFleetSeed;
  fleet_options.drift.seed = kFleetSeed * 7 + 4242;
  fleet_options.drift.mutation_rate = kDriftMutation;
  return fleet_options;
}

struct DriftPlan {
  std::vector<int> by_rank;  ///< site index at each popularity rank
  std::vector<double> cdf;   ///< Zipf CDF over ranks
  std::vector<int> drifting; ///< site indices that redesign
  /// pages index ranges per (site, epoch)
  std::map<std::pair<int, int>, std::pair<uint32_t, uint32_t>> range;
};

RunReport ServeDrift(const RunOptions& options) {
  RunReport report;
  std::string error;
  DriftPlan plan;
  // Declared before the world: its relearn manager samples from these
  // until the world is torn down.
  std::vector<thor::deepweb::DeepWebSite> sampler_fleet;
  std::vector<std::atomic<int>> epoch_now(kDriftSites);
  std::unique_ptr<World> world;
  const double setup_s = RepeatedSetup(
      options, &world,
      [&](World& w, int r) -> thor::Status {
        auto fleet_options = DriftFleetOptions();
        auto status = w.Boot(fleet_options, "drift" + std::to_string(r));
        if (!status.ok()) return status;
        w.LearnAll(kDriftSites);

        plan = DriftPlan{};
        thor::Rng rng(options.seed * 2654435761u + 1);
        for (int s = 0; s < kDriftSites; ++s) plan.by_rank.push_back(s);
        for (int i = kDriftSites - 1; i > 0; --i) {
          std::swap(plan.by_rank[static_cast<size_t>(i)],
                    plan.by_rank[rng.UniformInt(static_cast<uint64_t>(i) + 1)]);
        }
        double total = 0.0;
        for (int rank = 0; rank < kDriftSites; ++rank) {
          total += 1.0 / std::pow(rank + 1.0, kDriftZipf);
          plan.cdf.push_back(total);
        }
        for (double& c : plan.cdf) c /= total;
        for (int rank : kDriftRanks) {
          plan.drifting.push_back(plan.by_rank[static_cast<size_t>(rank)]);
        }

        // Request rounds: every site at epoch 0, drifting sites at every
        // later epoch, rendered from a private copy of the fleet.
        auto render_fleet = thor::deepweb::GenerateSiteFleet(fleet_options);
        for (int s = 0; s < kDriftSites; ++s) {
          const int epochs =
              std::count(plan.drifting.begin(), plan.drifting.end(), s) > 0
                  ? kDriftEvents + 1
                  : 1;
          for (int e = 0; e < epochs; ++e) {
            render_fleet[static_cast<size_t>(s)].SetEpoch(e);
            auto round = HeldOutRound(render_fleet[static_cast<size_t>(s)], s,
                                      e, kFleetSeed, kDriftRoundWords);
            const auto begin = static_cast<uint32_t>(w.pages.size());
            size_t answers = 0;
            for (const auto& page : round) answers += page.truth.empty() ? 0 : 1;
            size_t misses_left = static_cast<size_t>(
                static_cast<double>(answers) * kDriftMissShare /
                (1.0 - kDriftMissShare));
            for (auto& page : round) {
              if (page.truth.empty()) {
                if (misses_left == 0) continue;
                --misses_left;
              }
              w.pages.push_back(std::move(page));
            }
            plan.range[{s, e}] = {begin, static_cast<uint32_t>(w.pages.size())};
          }
        }
        w.protocol = Protocol::kHttp;
        w.Render(/*with_expected=*/false);

        // Background relearn; its sampler probes a private copy of the
        // site at the epoch the request stream is on now.
        sampler_fleet = thor::deepweb::GenerateSiteFleet(fleet_options);
        for (auto& e : epoch_now) e.store(0);
        thor::serve::RelearnManagerOptions manager_options;
        manager_options.metrics = &w.metrics;
        const uint64_t relearn_seed = options.seed * 1000003u + 1234u;
        w.manager = std::make_unique<thor::serve::RelearnManager>(
            &*w.store, manager_options,
            [&sampler_fleet, &epoch_now, relearn_seed](
                const std::string& site, uint64_t) {
              std::vector<thor::core::Page> pages;
              if (site.rfind("site", 0) != 0) return pages;
              const int id = std::atoi(site.c_str() + 4);
              if (id < 0 || id >= kDriftSites) return pages;
              auto& member = sampler_fleet[static_cast<size_t>(id)];
              member.SetEpoch(epoch_now[static_cast<size_t>(id)].load());
              thor::deepweb::ProbeOptions probe;
              probe.seed = relearn_seed + static_cast<uint64_t>(id);
              return thor::core::ToPages(
                  thor::deepweb::BuildSiteSample(member, probe));
            });
        thor::serve::ServiceOptions service_options;
        service_options.cache_capacity = kDriftCache;
        service_options.relearn_manager = w.manager.get();
        status = w.StartServing(service_options);
        if (!status.ok()) return status;
        auto ok200 = [](const Record&, size_t, int code, std::string_view) {
          return code == 200;
        };
        status = w.MapConnections(ok200);
        if (!status.ok()) return status;
        std::vector<uint32_t> epoch0;
        for (int s = 0; s < kDriftSites; ++s) {
          auto [b, e] = plan.range[{s, 0}];
          for (uint32_t i = b; i < e; ++i) epoch0.push_back(i);
        }
        auto pick = UniformPick(epoch0.size(), options.seed);
        auto warm = PoissonSchedule(kDriftRps, 500.0, options.seed ^ 0xd1f7,
                                    [&] { return epoch0[pick()]; });
        PhaseResult& phase = w.RunPhase(warm, ok200);
        if (phase.failures != 0) {
          return thor::Status::Internal("warm-up requests failed");
        }
        return thor::Status::OK();
      },
      &error);
  if (!world) {
    report.valid = false;
    report.invalid_reason = "set-up failed: " + error;
    return report;
  }
  World& w = *world;

  // The timed phase: Zipf-popular sites, drift events at fixed offsets.
  const double phase_ms = options.seconds * 900.0;
  std::vector<double> event_at;
  for (int e = 1; e <= kDriftEvents; ++e) {
    event_at.push_back(phase_ms * e / (kDriftEvents + 1));
  }
  auto epoch_at = [&](double t) {
    int epoch = 0;
    for (double at : event_at) epoch += t >= at ? 1 : 0;
    return epoch;
  };
  thor::Rng rng(options.seed * 6364136223846793005ull + 3);
  std::vector<Scheduled> schedule =
      PoissonSchedule(kDriftRps, phase_ms, options.seed * 40503, [] {
        return 0u;
      });
  for (Scheduled& item : schedule) {
    const double u = rng.UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(plan.cdf.begin(), plan.cdf.end(), u) -
        plan.cdf.begin());
    const int site = plan.by_rank[std::min(rank, plan.by_rank.size() - 1)];
    const bool drifts = std::count(plan.drifting.begin(), plan.drifting.end(),
                                   site) > 0;
    const int epoch = drifts ? epoch_at(item.at_ms) : 0;
    auto [begin, end] = plan.range[{site, epoch}];
    item.payload = begin + static_cast<uint32_t>(rng.UniformInt(end - begin));
  }
  std::vector<std::string> bodies(schedule.size());
  auto keep = [&bodies](const Record&, size_t index, int code,
                        std::string_view body) {
    bodies[index].assign(body);
    return code == 200;
  };
  // Every drifting site moves to the next epoch when the generator passes
  // each event time; the relearn sampler reads these.
  size_t next_event = 0;
  const PhaseResult& phase =
      w.RunPhase(schedule, keep, [&](double now, double start) {
        while (next_event < event_at.size() &&
               now >= start + event_at[next_event]) {
          ++next_event;
          for (int s : plan.drifting) {
            epoch_now[static_cast<size_t>(s)].store(
                static_cast<int>(next_event));
          }
        }
      });
  const double origin = phase.start_ms;
  report.attempted = static_cast<int64_t>(phase.records.size()) +
                     w.learn_attempted;
  int64_t failed = phase.failures + w.learn_failed;

  // Outputs: well-formed responses for the right site; accuracy against
  // ground truth; recovery per redesign event.
  int64_t correct = 0;
  int64_t answered = 0;
  std::map<std::pair<int, int>, double> first_good;  // (site, epoch) -> recv
  for (size_t i = 0; i < phase.records.size(); ++i) {
    const Record& record = phase.records[i];
    if (!record.answered || !record.ok) continue;
    ++answered;
    const RequestPage& page = w.pages[record.payload];
    std::string site;
    auto parsed = thor::serve::ResponseFromJson(bodies[i], &site);
    if (!parsed.ok() || site != SiteName(page.site) ||
        parsed->source == ExtractionService::Source::kShed ||
        parsed->source == ExtractionService::Source::kDeadline ||
        !parsed->error.empty()) {
      ++failed;
      continue;
    }
    if (parsed->pagelet_path == page.truth) ++correct;
    if (IsHit(parsed->source) && !page.truth.empty() &&
        parsed->pagelet_path == page.truth && page.epoch > 0) {
      auto key = std::make_pair(page.site, page.epoch);
      auto it = first_good.find(key);
      if (it == first_good.end() || record.recv_ms < it->second) {
        first_good[key] = record.recv_ms;
      }
    }
  }
  std::vector<double> recover_s;
  int unrecovered = 0;
  for (int s : plan.drifting) {
    for (int e = 1; e <= kDriftEvents; ++e) {
      const double at = origin + event_at[static_cast<size_t>(e - 1)];
      auto it = first_good.find({s, e});
      const double end = e < kDriftEvents
                             ? origin + event_at[static_cast<size_t>(e)]
                             : phase.end_ms;
      if (it == first_good.end() || it->second > end) {
        ++unrecovered;
        recover_s.push_back((end - at) / 1000.0);
      } else {
        recover_s.push_back((it->second - at) / 1000.0);
      }
    }
  }
  report.failed = failed;
  auto latencies = phase.LatenciesMs();
  const double p50 = Percentile(latencies, 50.0);
  const double p90 = PhasePercentile(phase, 90.0);
  const double p99 = PhasePercentile(phase, 99.0);
  const double accuracy =
      answered > 0 ? static_cast<double>(correct) / answered : 0.0;
  const double goodput = static_cast<double>(correct) / (phase_ms / 1000.0);
  const double recover = Percentile(recover_s, 50.0);
  if (SamplesBeyond(static_cast<int64_t>(latencies.size()), 99.0) < 10) {
    report.valid = false;
    report.invalid_reason = "fewer than 10 samples beyond p99";
  }
  AddEndToEnd(&report, setup_s, goodput, p50, p90, accuracy, w.learn_pr,
              PeakRssMb());
  report.named = {
      {"p50_ms", "ms", p50},
      {"p90_ms", "ms", p90},
      {"p99_ms", "ms", p99},
      {"fail_ratio", "ratio",
       static_cast<double>(report.failed) /
           static_cast<double>(std::max<int64_t>(1, report.attempted))},
      {"extract_accuracy", "ratio", accuracy},
      {"recover_p50_s", "s", recover},
      {"recover_events", "count", static_cast<double>(recover_s.size())},
      {"recover_unrecovered", "count", static_cast<double>(unrecovered)},
      {"goodput_rps", "req/s", goodput},
      {"relearns", "count",
       static_cast<double>(w.metrics.GetCounter("serve.relearns")->value())},
      {"relearn_attempts", "count",
       static_cast<double>(w.metrics.GetCounter("serve.relearn_attempts")->value())},
      {"drift_events", "count",
       static_cast<double>(w.metrics.GetCounter("serve.drift.events")->value())},
      {"offered_rps", "req/s", kDriftRps},
      {"peak_rss_mb", "MiB", PeakRssMb()},
      {"setup_s", "s", setup_s},
  };
  CheckLate(phase, p99, "drift phase", &report);
  if (options.traced) LayerMetrics(w, {&phase}, &report);
  return report;
}

// --- learn_cold --------------------------------------------------------------

RunReport LearnCold(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<World> world;
  std::string error;
  const int sites = std::max(
      20, static_cast<int>(std::lround(options.seconds * kLearnSitesPerSecond)));
  std::optional<thor::serve::TemplateStore> warm_store;
  const double setup_s = RepeatedSetup(
      options, &world,
      [&](World& w, int r) -> thor::Status {
        thor::deepweb::FleetOptions fleet_options;
        fleet_options.num_sites = sites + 1;  // the last one warms up
        fleet_options.seed = kFleetSeed;
        auto status = w.Boot(fleet_options, "learn" + std::to_string(r));
        if (!status.ok()) return status;
        // Held-out rounds for the serving check of the committed store.
        for (int s = 0; s < kLearnVerifySites; ++s) {
          auto round = HeldOutRound(w.fleet[static_cast<size_t>(s)], s, 0,
                                    options.seed, 0);
          for (auto& page : round) w.pages.push_back(std::move(page));
        }
        // Warm-up: learn the spare site into a throwaway store, so the
        // timed loop starts from an empty store with warm code paths.
        const std::string warm_dir =
            (fs::path(options.work_dir) / ("warm-" + std::to_string(r)))
                .string();
        fs::remove_all(warm_dir);
        auto opened = thor::serve::TemplateStore::Open(warm_dir);
        if (!opened.ok()) return opened.status();
        SiteLearner warm(w.sim_port, &*opened, nullptr, nullptr);
        LearnOutcome outcome =
            warm.Learn(sites, "warmup", TrainPlan(options.seed, sites), 0);
        fs::remove_all(warm_dir);
        if (!outcome.ok) return thor::Status::Internal(outcome.error);
        return thor::Status::OK();
      },
      &error);
  if (!world) {
    report.valid = false;
    report.invalid_reason = "set-up failed: " + error;
    return report;
  }
  World& w = *world;

  // The timed loop: one site in flight, empty store to committed
  // generation. Each site's precision/recall is checked against the
  // in-process reference outside its timed span.
  SiteLearner learner(w.sim_port, &*w.store, &w.metrics,
                      options.traced ? &w.spans : nullptr);
  int64_t mismatches = 0;
  for (int i = 0; i < sites; ++i) {
    const auto plan = TrainPlan(options.seed, i);
    LearnOutcome outcome =
        learner.Learn(i, SiteName(i), plan, static_cast<uint64_t>(i));
    ++w.learn_attempted;
    if (!outcome.ok) {
      ++w.learn_failed;
      report.notes.push_back("site " + std::to_string(i) + ": " +
                             outcome.error);
      continue;
    }
    w.learn_ms.push_back(outcome.latency_ms);
    w.learn_pr.Add(outcome.pr);
    const auto reference =
        ReferencePrecisionRecall(w.fleet[static_cast<size_t>(i)], plan);
    if (reference.correct != outcome.pr.correct ||
        reference.extracted != outcome.pr.extracted ||
        reference.truth != outcome.pr.truth) {
      ++mismatches;
      report.notes.push_back("site " + std::to_string(i) +
                             ": precision/recall differ from the in-process "
                             "reference");
    }
  }

  // Serving check of the committed store through thord.
  w.protocol = Protocol::kNdjson;
  w.Render(/*with_expected=*/true);
  int64_t serve_failures = 0;
  const PhaseResult* verify = nullptr;
  double accuracy = 0.0;
  thor::Status status = w.StartServing(thor::serve::ServiceOptions{});
  if (status.ok()) status = w.MapConnections(ExpectedCheck(w));
  if (status.ok()) {
    std::vector<Scheduled> schedule;
    const double gap_ms = 1000.0 / kLearnVerifyRps;
    for (size_t i = 0; i < w.pages.size(); ++i) {
      schedule.push_back({gap_ms * static_cast<double>(i),
                          static_cast<uint32_t>(i)});
    }
    verify = &w.RunPhase(schedule, ExpectedCheck(w));
    serve_failures = verify->failures;
    report.attempted += static_cast<int64_t>(verify->records.size());
    accuracy = AccuracyOf(*verify, ExpectedCorrect(w));
  } else {
    serve_failures = 1;
    report.notes.push_back("serving check: " + status.ToString());
  }

  report.attempted += w.learn_attempted;
  report.failed = w.learn_failed + mismatches + serve_failures;
  double total_ms = 0.0;
  for (double ms : w.learn_ms) total_ms += ms;
  const double per_s =
      total_ms > 0.0 ? static_cast<double>(w.learn_ms.size()) /
                           (total_ms / 1000.0)
                     : 0.0;
  const double tail_p =
      TailPercentile(static_cast<int64_t>(w.learn_ms.size()));
  const double p50 = Percentile(w.learn_ms, 50.0);
  const double tail = Percentile(w.learn_ms, tail_p);
  AddEndToEnd(&report, setup_s, per_s, p50, Percentile(w.learn_ms, 90.0),
              accuracy, w.learn_pr, PeakRssMb());
  report.named = {
      {"learn_sites_per_s", "sites/s", per_s},
      {"learn_site_p50_ms", "ms", p50},
      {"learn_site_tail_ms", "ms", tail},
      {"learn_site_tail_percentile", "pct", tail_p},
      {"learn_sites", "count", static_cast<double>(w.learn_ms.size())},
      {"learn_precision", "ratio", w.learn_pr.Precision()},
      {"learn_recall", "ratio", w.learn_pr.Recall()},
      {"fail_ratio", "ratio",
       static_cast<double>(w.learn_failed) /
           static_cast<double>(std::max<int64_t>(1, w.learn_attempted))},
      {"extract_accuracy", "ratio", accuracy},
      {"peak_rss_mb", "MiB", PeakRssMb()},
      {"setup_s", "s", setup_s},
  };
  // The serving check reports no latency, so a late generator there only
  // shows in gen.late_p99_ms; it does not invalidate the run.
  if (verify != nullptr) {
    report.named.push_back({"gen.late_p99_ms", "ms", Late99(*verify)});
  }
  if (options.traced && verify != nullptr) LayerMetrics(w, {verify}, &report);
  return report;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "serve_hit" || name == "learn_cold" || name == "serve_drift";
}

RunReport RunWorkload(const RunOptions& options) {
  if (options.workload == "serve_hit") return ServeHit(options);
  if (options.workload == "serve_drift") return ServeDrift(options);
  return LearnCold(options);
}

}  // namespace thorbench
