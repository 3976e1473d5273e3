// thord — long-lived multi-site extraction daemon.
//
// Speaks newline-delimited JSON over stdin/stdout: each request line is
//
//   {"site": "site0", "html": "<html>...</html>"}
//   {"site": "site0", "file": "page.html"}          (html loaded from disk)
//
// and each response line is
//
//   {"site":"site0","source":"template","pagelet":"html>body>table",
//    "objects":4,"confidence":0.97,"generation":1}
//
// `source` is "template" (served from the store/cache), "miss" (no
// template fit), "shed" (rejected by admission control or a draining
// shutdown), or "deadline" (the batch deadline overtook the request).
// With --fleet, a miss on an unknown or stale site also enqueues a
// background Probe→Cluster→Discover relearn; a generation that wins its
// canary serves from a later batch, never from the request that asked.
//
// A reader thread parses stdin while a worker thread batches requests
// through the extraction service (see serve/server_loop.h); responses are
// emitted in request order and every stage is deterministic, so with an
// unbounded backlog (the default) the response stream is byte-identical
// at every THOR_THREADS setting for a fixed --seed. --max-backlog bounds
// the queue instead: overflow requests are answered with a "shed"
// response in stream position rather than buffered without limit.
//
// Shutdown: SIGTERM/SIGINT finishes the in-flight batch, answers every
// queued request with a draining "shed" response, flushes, and exits 0 —
// the response stream is always complete. A second signal additionally
// cancels the in-flight batch (its unfinished requests degrade to typed
// "deadline" responses). The crash-recovery chaos suite covers the
// ungraceful paths through THOR_FAILPOINTS (see --list-failpoints).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/evaluation.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/transport.h"
#include "src/fleet/fleet_wire.h"
#include "src/fleet/generation_ledger.h"
#include "src/fleet/replica_agent.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/serve/extraction_service.h"
#include "src/serve/relearn_manager.h"
#include "src/serve/server_loop.h"
#include "src/serve/template_store.h"
#include "src/serve/wire.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"
#include "tools/flags.h"

namespace thor {
namespace {

volatile std::sig_atomic_t g_signals = 0;

void OnSignal(int /*signum*/) { g_signals = g_signals + 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: thord --store DIR [options] < requests.ndjson\n"
      "\n"
      "options:\n"
      "  --store DIR             template store directory (required)\n"
      "  --cache N               resident site registries (default 64)\n"
      "  --threads N             batch fan-out threads (default: "
      "THOR_THREADS)\n"
      "  --batch N               max requests per batch (default 32)\n"
      "  --max-backlog N         shed requests once N are queued "
      "(default 0 = unbounded)\n"
      "  --deadline-ms MS        per-batch extraction deadline "
      "(default 0 = none)\n"
      "  --relearn-deadline-ms MS  per-relearn pipeline deadline "
      "(default 0 = none)\n"
      "  --max-request-bytes N   larger request lines are shed, and "
      "\"file\" pages larger than N refused (default 4194304)\n"
      "  --fleet N               enable relearning against N simulated "
      "sites\n"
      "  --fault-rate R          inject transport faults at rate R into "
      "relearn probes\n"
      "  --retry-budget N        fetch attempts per relearn probe word, "
      "N >= 1 (default 4)\n"
      "  --probe-queries N       probe words per relearn sample "
      "(default 40)\n"
      "  --relearn-window N      requests per staleness window "
      "(default 20)\n"
      "  --relearn-miss-rate R   window miss rate that triggers relearn "
      "(default 0.5)\n"
      "  --relearn-workers N     background relearn workers, at least 1 "
      "(default 1)\n"
      "  --relearn-queue N       pending background relearns before the "
      "oldest is shed\n"
      "                          (default 8)\n"
      "  --canary-sample N       recent pages per site for canary "
      "evaluation (default 8;\n"
      "                          0 promotes every relearn)\n"
      "  --canary-floor R        canary must retain R of the live "
      "generation's hits\n"
      "                          (default 0.9)\n"
      "  --drift-seed S          enable fleet template drift (default 0 = "
      "static sites)\n"
      "  --drift-rate R          per-knob mutation probability per epoch "
      "(default 0.35)\n"
      "  --drift-ab R            fraction of queries served by a B-arm "
      "redesign\n"
      "  --drift-every N         advance one drift epoch every N stream "
      "requests\n"
      "                          (default 0 = never)\n"
      "  --listen PORT           serve NDJSON and HTTP/1.1 over loopback "
      "TCP instead\n"
      "                          of stdio (0 = ephemeral port)\n"
      "  --port-file PATH        write the bound port to PATH (with "
      "--listen 0)\n"
      "  --peer HOST:PORT        fleet replica to anti-entropy against "
      "(repeatable,\n"
      "                          needs --listen)\n"
      "  --anti-entropy-ms MS    gossip round interval against --peer "
      "replicas\n"
      "                          (default 250)\n"
      "  --idle-timeout-ms MS    close idle TCP connections after MS "
      "(default 60000)\n"
      "  --seed S                probe seed for relearn samples "
      "(default 1234)\n"
      "  --metrics               print the metrics registry to stderr at "
      "exit\n"
      "  --list-failpoints       print every failpoint name and exit\n");
  return 2;
}

struct DaemonOptions {
  std::string store_dir;
  size_t cache = 64;
  int threads = 0;
  int batch = 32;
  size_t max_backlog = 0;
  double deadline_ms = 0.0;
  double relearn_deadline_ms = 0.0;
  size_t max_request_bytes = 4u << 20;
  int fleet = 0;
  double fault_rate = 0.0;
  int retry_budget = 4;
  int probe_queries = 40;
  int relearn_window = 20;
  double relearn_miss_rate = 0.5;
  int relearn_workers = 1;
  size_t relearn_queue = 8;
  size_t canary_sample = 8;
  double canary_floor = 0.9;
  uint64_t drift_seed = 0;
  double drift_rate = 0.35;
  double drift_ab = 0.0;
  int drift_every = 0;
  uint64_t seed = 1234;
  bool print_metrics = false;
  int listen_port = -1;  ///< -1 = stdio mode
  std::string port_file;
  double idle_timeout_ms = 60000.0;
  std::vector<std::string> peers;
  double anti_entropy_ms = 250.0;
};

void PrintResponse(const std::string& site,
                   const serve::ExtractionService::Response& response) {
  // serve/wire renders the line so the stdio and TCP front-ends cannot
  // drift apart: both streams come from serve::ResponseToJson.
  std::fputs(serve::ResponseToJson(site, response).c_str(), stdout);
  std::fputc('\n', stdout);
}

/// Fleet member id for "site<digits>" (no leading zeros), else -1.
int FleetSiteId(const std::string& site, size_t fleet_size) {
  if (site.rfind("site", 0) != 0) return -1;
  std::string suffix = site.substr(4);
  if (suffix.empty() || suffix.size() > 9 ||
      suffix.find_first_not_of("0123456789") != std::string::npos ||
      (suffix.size() > 1 && suffix[0] == '0')) {
    return -1;
  }
  int id = std::atoi(suffix.c_str());
  return id < static_cast<int>(fleet_size) ? id : -1;
}

int Main(int argc, char** argv) {
  DaemonOptions options;
  bool list_failpoints = false;
  if (!tools::ParseArgs(
          argc - 1, argv + 1,
          {{"--store", &options.store_dir}, {"--cache", &options.cache},
           {"--threads", &options.threads}, {"--batch", &options.batch},
           {"--max-backlog", &options.max_backlog},
           {"--deadline-ms", &options.deadline_ms},
           {"--relearn-deadline-ms", &options.relearn_deadline_ms},
           {"--max-request-bytes", &options.max_request_bytes},
           {"--fleet", &options.fleet}, {"--fault-rate", &options.fault_rate},
           {"--retry-budget", &options.retry_budget},
           {"--probe-queries", &options.probe_queries},
           {"--relearn-window", &options.relearn_window},
           {"--relearn-miss-rate", &options.relearn_miss_rate},
           {"--relearn-workers", &options.relearn_workers},
           {"--relearn-queue", &options.relearn_queue},
           {"--canary-sample", &options.canary_sample},
           {"--canary-floor", &options.canary_floor},
           {"--drift-seed", &options.drift_seed},
           {"--drift-rate", &options.drift_rate},
           {"--drift-ab", &options.drift_ab},
           {"--drift-every", &options.drift_every},
           {"--seed", &options.seed}, {"--listen", &options.listen_port},
           {"--port-file", &options.port_file},
           {"--idle-timeout-ms", &options.idle_timeout_ms},
           {"--peer", &options.peers},
           {"--anti-entropy-ms", &options.anti_entropy_ms},
           {"--metrics", &options.print_metrics},
           {"--list-failpoints", &list_failpoints}})) {
    return Usage();
  }
  if (list_failpoints) {
    for (const std::string& name : FailpointRegistry::Global()->Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (options.store_dir.empty() || options.batch < 1 ||
      options.retry_budget < 1 || options.relearn_workers < 1) {
    return Usage();
  }

  auto store = serve::TemplateStore::Open(options.store_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  MetricsRegistry metrics;

  // Fleet replication surface: the ledger mirrors every committed
  // generation as a hash chain (see fleet/generation_ledger.h). Surviving
  // sites restart as length-1 chains seeded from zero; from then on the
  // store's commit observer extends the chain at the durability boundary,
  // so /ledger always describes exactly what the manifest holds.
  fleet::GenerationLedger ledger;
  for (const auto& [site, info] : store->Entries()) {
    ledger.Adopt(site, info.generation, info.checksum,
                 fleet::GenerationLedger::ChainLink(site, info.generation,
                                                    info.checksum, 0));
  }
  store->SetCommitObserver([&ledger](const std::string& site,
                                     int64_t generation, uint64_t checksum) {
    ledger.Append(site, generation, checksum);
  });

  std::vector<fleet::Endpoint> peers;
  for (const std::string& spec : options.peers) {
    auto endpoint = fleet::ParseEndpoint(spec);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "bad --peer %s: %s\n", spec.c_str(),
                   endpoint.status().ToString().c_str());
      return 2;
    }
    peers.push_back(*endpoint);
  }
  if (!peers.empty() && options.listen_port < 0) {
    std::fprintf(stderr, "--peer needs --listen\n");
    return 2;
  }

  serve::ServiceOptions service_options;
  service_options.cache_capacity = options.cache;
  service_options.threads = options.threads;
  service_options.relearn_min_requests = options.relearn_window;
  service_options.relearn_miss_rate = options.relearn_miss_rate;
  service_options.metrics = &metrics;

  // With --fleet, sites named "site<K>" can be relearned by probing the
  // simulated fleet — the stand-in for re-crawling a live source. The
  // probe runs through a fault-injecting transport (a pass-through at the
  // default --fault-rate 0) and the resilient prober (retries, backoff,
  // circuit breaker), so relearn inherits the same hostile-transport
  // degradation as batch evaluation. With --drift-seed the fleet
  // redesigns itself on a deterministic schedule; a relearn probe renders
  // the epoch the request stream was at when the job was enqueued
  // (derived from the batch ticket, never wall time, so the response
  // stream stays reproducible).
  std::vector<deepweb::DeepWebSite> fleet;
  auto probe_fleet = [&options, &fleet,
                      &metrics](int id) -> std::vector<core::Page> {
    deepweb::DeepWebSite& member = fleet[static_cast<size_t>(id)];
    deepweb::ResilientProbeOptions probe;
    probe.plan.num_dictionary_words = options.probe_queries;
    probe.plan.seed = options.seed + static_cast<uint64_t>(id);
    probe.retry.max_attempts_per_query = options.retry_budget;
    probe.metrics = &metrics;
    deepweb::FaultOptions faults = deepweb::FaultOptions::Uniform(
        options.fault_rate,
        options.seed + 0x9e37u * static_cast<uint64_t>(id));
    deepweb::DirectTransport direct(&member);
    deepweb::FaultInjectingTransport chaotic(&direct, faults);
    auto sample = deepweb::BuildSiteSampleResilient(id, &chaotic, probe);
    if (!sample.ok()) return {};
    return core::ToPages(*sample);
  };

  std::unique_ptr<serve::RelearnManager> manager;
  if (options.fleet > 0) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = options.fleet;
    fleet_options.drift.seed = options.drift_seed;
    fleet_options.drift.mutation_rate = options.drift_rate;
    fleet_options.drift.ab_fraction = options.drift_ab;
    fleet = deepweb::GenerateSiteFleet(fleet_options);
    // Fleet relearns go through the background queue: the request path
    // only enqueues, and workers probe the fleet off-thread. Per-site job
    // dedup means at most one worker touches fleet[id] at a time, and
    // nothing else reads the fleet (request pages arrive on stdin), so
    // SetEpoch needs no locking.
    serve::RelearnManagerOptions manager_options;
    manager_options.workers = options.relearn_workers;
    manager_options.queue_capacity = options.relearn_queue;
    manager_options.canary_sample = options.canary_sample;
    manager_options.canary_floor = options.canary_floor;
    manager_options.relearn_deadline_ms = options.relearn_deadline_ms;
    manager_options.metrics = &metrics;
    manager = std::make_unique<serve::RelearnManager>(
        &*store, manager_options,
        [&options, &fleet, probe_fleet](const std::string& site,
                                        uint64_t ticket)
            -> std::vector<core::Page> {
          int id = FleetSiteId(site, fleet.size());
          if (id < 0) return {};
          if (options.drift_every > 0) {
            int epoch = static_cast<int>(
                (ticket - 1) * static_cast<uint64_t>(options.batch) /
                static_cast<uint64_t>(options.drift_every));
            fleet[static_cast<size_t>(id)].SetEpoch(epoch);
          }
          return probe_fleet(id);
        });
    service_options.relearn_manager = manager.get();
  }
  serve::ExtractionService service(&*store, service_options);

  serve::ServerLoopOptions loop_options;
  loop_options.batch = options.batch;
  loop_options.max_backlog = options.max_backlog;
  loop_options.batch_deadline_ms = options.deadline_ms;
  loop_options.metrics = &metrics;
  serve::ServerLoop loop(&service, loop_options);

  // SIGPIPE must never kill the daemon: a TCP peer that disappears
  // mid-response becomes a typed connection-closed write result instead
  // (and for stdio, a dead pipe ends the stream without a signal death).
  net::IgnoreSigPipe();

  // SIGTERM/SIGINT are delivered to the reader thread only (the worker
  // inherits a blocking mask) and installed without SA_RESTART, so a
  // signal interrupts the blocking stdin read instead of waiting for the
  // next request line.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
  // With --listen, the TCP front-end replaces the stdin reader: the
  // event-loop thread parses many concurrent connections and submits
  // tagged requests; the same worker batches them and Deliver routes
  // each response back to its connection. Both threads are spawned with
  // signals blocked so the main thread keeps the drain duty.
  std::unique_ptr<net::NetServer> server;
  if (options.listen_port >= 0) {
    net::NetServerOptions net_options;
    net_options.port = static_cast<uint16_t>(options.listen_port);
    net_options.idle_timeout_ms = options.idle_timeout_ms;
    net_options.limits.max_line_bytes = options.max_request_bytes;
    net_options.limits.max_body_bytes = options.max_request_bytes;
    net_options.metrics = &metrics;
    // Replication endpoints: peers read this worker's chain state and pull
    // raw committed payloads. Served straight off the loop thread — both
    // are small locked reads (the template payload re-reads one store
    // file, bounded by template size, not page size).
    net_options.extra_get =
        [&ledger, &store](
            const std::string& path,
            const std::vector<std::pair<std::string, std::string>>& query,
            int* status, std::string* /*content_type*/, std::string* body) {
          if (path == "/ledger") {
            fleet::LedgerView view;
            view.head = ledger.Head();
            view.sites = ledger.Snapshot();
            *body = fleet::LedgerToJson(view);
            return true;
          }
          if (path == "/template") {
            std::string site;
            for (const auto& [key, value] : query) {
              if (key == "site") site = value;
            }
            auto raw = store->ReadRaw(site);
            if (!raw.ok()) {
              *status = 404;
              *body = "{\"error\":\"unknown site\"}";
              return true;
            }
            fleet::TemplatePayload payload;
            payload.site = site;
            payload.generation = raw->generation;
            payload.checksum = raw->checksum;
            payload.head = ledger.Site(site).head;
            payload.payload = std::move(raw->payload);
            *body = fleet::TemplatePayloadToJson(payload);
            return true;
          }
          return false;
        };
    server = std::make_unique<net::NetServer>(&loop, net_options);
    auto port = server->Start();
    if (!port.ok()) {
      std::fprintf(stderr, "cannot listen: %s\n",
                   port.status().ToString().c_str());
      return 1;
    }
    if (!options.port_file.empty()) {
      Status written = net::WritePortFile(options.port_file, *port);
      if (!written.ok()) {
        // An unpublished port would leave a polling script waiting out
        // its own timeout: fail before serving anything.
        std::fprintf(stderr, "cannot write --port-file: %s\n",
                     written.ToString().c_str());
        server->Shutdown(0.0);
        return 1;
      }
    }
    std::fprintf(stderr, "thord listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(*port));
  }
  // Anti-entropy against the sibling replicas of this shard: adopted
  // generations must also leave the resident cache, or the serving path
  // would keep answering from the pre-adoption registry.
  std::unique_ptr<fleet::ReplicaAgent> agent;
  if (!peers.empty()) {
    fleet::ReplicaAgentOptions agent_options;
    agent_options.interval_ms = options.anti_entropy_ms;
    agent_options.metrics = &metrics;
    agent_options.on_adopt = [&service](const std::string& site) {
      service.Invalidate(site);
    };
    agent = std::make_unique<fleet::ReplicaAgent>(&*store, &ledger, peers,
                                                  agent_options);
    agent->Start();
  }
  std::atomic<bool> worker_done{false};
  std::thread worker([&] {
    if (server != nullptr) {
      loop.Run(
          [&server](uint64_t tag, const std::string& site,
                    const serve::ExtractionService::Response& response) {
            server->Deliver(tag, site, response);
          },
          [] {});
    } else {
      loop.Run(PrintResponse, [] { std::fflush(stdout); });
    }
    worker_done.store(true);
  });
  pthread_sigmask(SIG_UNBLOCK, &drain_signals, nullptr);

  if (server != nullptr) {
    // Net mode has no end-of-input; the daemon runs until signaled.
    while (g_signals == 0 && !worker_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (g_signals > 0) server->BeginDrain();
  } else {
    Counter* shed = metrics.GetCounter("serve.shed");
    std::string line;
    while (g_signals == 0 && std::getline(std::cin, line)) {
      if (line.empty()) continue;
      if (line.size() > options.max_request_bytes) {
        shed->Increment();
        serve::ExtractionService::Response response;
        response.source = serve::ExtractionService::Source::kShed;
        response.error = "request too large";
        loop.SubmitImmediate("", std::move(response));
        continue;
      }
      std::string site, html;
      std::string error = serve::ParseRequestLine(
          line, options.max_request_bytes, &site, &html);
      if (!error.empty()) {
        serve::ExtractionService::Response response;
        response.error = error;
        loop.SubmitImmediate(std::move(site), std::move(response));
        continue;
      }
      loop.Submit(std::move(site), std::move(html));
    }

    if (g_signals > 0) {
      loop.RequestDrain();
    } else {
      loop.FinishInput();
    }
  }
  // Watch for a second signal while the worker finishes the in-flight
  // batch: it cancels the batch deadline so shutdown stays prompt even
  // mid-relearn.
  bool cancelled = false;
  while (!worker_done.load()) {
    if (!cancelled && g_signals >= 2) {
      loop.CancelInFlight();
      cancelled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worker.join();
  // Stop gossip before tearing the server down so no adoption lands
  // mid-shutdown; peers just see this replica drop off and move on.
  if (agent != nullptr) agent->Stop();
  // The consumer has returned, so no Deliver can race the teardown:
  // flush every connection's outbox, then stop the event loop.
  if (server != nullptr) server->Shutdown(2000.0);
  // Drain the background relearn workers before reading final metrics:
  // jobs already running finish (or abort at their next stop check), so
  // the printed queue depth is always 0 and nothing races the snapshot.
  if (manager != nullptr) manager->Stop();

  if (options.print_metrics) {
    std::fprintf(stderr, "%s\n", metrics.Snapshot().ToJson().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
