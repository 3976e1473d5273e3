// Fleet router over live in-process workers: routing determinism, the
// wire roundtrip's byte identity, connect-failure redirects, circuit
// breaking, typed sheds when a shard is fully down, and batch deadline
// degradation. Workers here are NetServer + ServerLoop stacks whose
// BatchFn returns canned responses tagged with the worker's identity —
// what is under test is the router, not extraction.

#include "src/fleet/router.h"

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/net_server.h"
#include "src/serve/server_loop.h"
#include "src/serve/wire.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"

namespace thor::fleet {
namespace {

using Request = serve::ExtractionService::Request;
using Response = serve::ExtractionService::Response;
using Source = serve::ExtractionService::Source;

/// The canned answer every fake worker serves for `site`.
Response CannedResponse(const std::string& tag, const std::string& site) {
  Response response;
  response.source = Source::kTemplate;
  response.pagelet_path = tag + ":" + site;
  response.objects = {"o1", "o2", "o3"};
  response.confidence = 0.75;
  response.generation = 2;
  return response;
}

/// One fake fleet worker: real sockets, real framing, canned extraction.
struct FakeWorker {
  explicit FakeWorker(std::string tag) : tag_(std::move(tag)) {
    serve::ServerLoopOptions loop_options;
    loop_options.metrics = &metrics;
    loop.emplace(
        [this](const std::vector<Request>& requests, const Deadline&) {
          std::vector<Response> out;
          out.reserve(requests.size());
          for (const Request& request : requests) {
            out.push_back(CannedResponse(tag_, request.site));
          }
          return out;
        },
        loop_options);
    net::NetServerOptions net_options;
    net_options.metrics = &metrics;
    server.emplace(&*loop, net_options);
    auto bound = server->Start();
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    port = *bound;
    worker = std::thread([this] {
      loop->Run(
          [this](uint64_t conn_tag, const std::string& site,
                 const Response& response) {
            server->Deliver(conn_tag, site, response);
          },
          [] {});
    });
  }

  ~FakeWorker() { StopServing(); }

  /// Tears the worker down; its port then refuses connections.
  void StopServing() {
    if (!worker.joinable()) return;
    server->BeginDrain();
    worker.join();
    server->Shutdown(2000.0);
  }

  std::string tag_;
  MetricsRegistry metrics;
  std::optional<serve::ServerLoop> loop;
  std::optional<net::NetServer> server;
  std::thread worker;
  uint16_t port = 0;
};

Endpoint Local(uint16_t port) { return Endpoint{"127.0.0.1", port}; }

/// Burns an ephemeral port that now refuses connections (a dead replica).
uint16_t DeadPort() {
  FakeWorker doomed("doomed");
  uint16_t port = doomed.port;
  doomed.StopServing();
  return port;
}

TEST(FleetRouterTest, ForwardsAndRoundtripsTheWireExactly) {
  FakeWorker worker("w0");
  RouterOptions options;
  Router router({{Local(worker.port)}}, options);

  Request request{"site0", "<html><body>x</body></html>"};
  Response routed = router.Forward(request);
  EXPECT_EQ(routed.source, Source::kTemplate);
  EXPECT_EQ(routed.pagelet_path, "w0:site0");
  EXPECT_EQ(routed.generation, 2);

  // Byte identity through the hop: re-rendering the routed response must
  // reproduce exactly what the worker's wire renderer emitted (object
  // texts ride as a count on the wire, so only the re-rendered line — not
  // the text vector — is comparable).
  EXPECT_EQ(serve::ResponseToJson("site0", routed),
            serve::ResponseToJson("site0", CannedResponse("w0", "site0")));
}

TEST(FleetRouterTest, PlacementIsDeterministicAndCoversAllShards) {
  FakeWorker a("a"), b("b");
  RouterOptions options;
  Router router({{Local(a.port)}, {Local(b.port)}}, options);
  Router twin({{Local(a.port)}, {Local(b.port)}}, options);
  bool hit0 = false, hit1 = false;
  for (int i = 0; i < 64; ++i) {
    const std::string site = "site" + std::to_string(i);
    size_t shard = router.ShardFor(site);
    EXPECT_EQ(shard, twin.ShardFor(site));
    (shard == 0 ? hit0 : hit1) = true;
    Response response = router.Forward({site, "<html/>"});
    EXPECT_EQ(response.pagelet_path,
              (shard == 0 ? "a:" : "b:") + site);
  }
  EXPECT_TRUE(hit0);
  EXPECT_TRUE(hit1);
}

TEST(FleetRouterTest, ConnectFailureRedirectsToTheNextReplica) {
  FakeWorker live("live");
  MetricsRegistry metrics;
  RouterOptions options;
  options.metrics = &metrics;
  options.connect_timeout_ms = 2000.0;
  Router router({{Local(DeadPort()), Local(live.port)}}, options);

  const double start_ms = SystemClock::Instance()->NowMs();
  for (int i = 0; i < 8; ++i) {
    Response response = router.Forward({"s" + std::to_string(i), "<html/>"});
    EXPECT_EQ(response.source, Source::kTemplate) << response.error;
    EXPECT_EQ(response.pagelet_path.rfind("live:", 0), 0u);
  }
  // Half the rotations start on the dead replica, so redirects must have
  // happened — and none of them cost the client a response.
  EXPECT_GT(metrics.GetCounter("fleet.redirects")->value(), 0);
  EXPECT_GT(metrics.GetCounter("fleet.connect_failures")->value(), 0);
  // A refused loopback connect fails at once: failover must never wait out
  // the connect timeout, not even once across all eight forwards.
  EXPECT_LT(SystemClock::Instance()->NowMs() - start_ms,
            options.connect_timeout_ms);
}

TEST(FleetRouterTest, DeadShardBreaksTheCircuitAndShedsTyped) {
  MetricsRegistry metrics;
  RouterOptions options;
  options.metrics = &metrics;
  options.eject_after = 2;
  options.halfopen_ms = 60000.0;  // no probes during this test
  uint16_t dead = DeadPort();
  Router router({{Local(dead)}}, options);

  for (int i = 0; i < 5; ++i) {
    Response response = router.Forward({"s", "<html/>"});
    EXPECT_EQ(response.source, Source::kShed);
    EXPECT_FALSE(response.error.empty());
  }
  auto health = router.HealthSnapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_TRUE(health.begin()->second.ejected);
  EXPECT_GE(metrics.GetCounter("fleet.ejections")->value(), 1);
  // The breaker yields when the whole shard is ejected, so requests keep
  // reaching the endpoint (and shedding) instead of erroring instantly
  // forever — a revived replica would be picked back up.
  EXPECT_GE(metrics.GetCounter("fleet.shed")->value(), 5);
}

TEST(FleetRouterTest, EjectionAndFailedHalfOpenProbesKeepTheBreakerOpen) {
  MetricsRegistry metrics;
  RouterOptions options;
  options.metrics = &metrics;
  options.eject_after = 1;
  options.halfopen_ms = 0.0;  // every forward is a half-open probe
  FakeWorker worker("w");
  const std::string key = "127.0.0.1:" + std::to_string(worker.port);
  Router router({{Local(worker.port)}}, options);

  EXPECT_EQ(router.Forward({"s", "<html/>"}).source, Source::kTemplate);
  EXPECT_FALSE(router.HealthSnapshot().at(key).ejected);

  worker.StopServing();
  EXPECT_EQ(router.Forward({"s", "<html/>"}).source, Source::kShed);
  EXPECT_TRUE(router.HealthSnapshot().at(key).ejected);

  // With halfopen_ms at zero every forward probes the endpoint; a failed
  // probe must re-arm the ejection, never reinstate.
  EXPECT_EQ(router.Forward({"s", "<html/>"}).source, Source::kShed);
  EXPECT_TRUE(router.HealthSnapshot().at(key).ejected);
  EXPECT_GT(metrics.GetCounter("fleet.halfopen_probes")->value(), 0);
}

TEST(FleetRouterTest, RouteFailpointShedsTyped) {
  FakeWorker worker("w");
  Router router({{Local(worker.port)}}, RouterOptions{});
  ASSERT_TRUE(FailpointRegistry::Global()->Arm("fleet.route", "error").ok());
  Response response = router.Forward({"s", "<html/>"});
  FailpointRegistry::Global()->DisarmAll();
  EXPECT_EQ(response.source, Source::kShed);
  EXPECT_NE(response.error.find("router unavailable"), std::string::npos);
  // Disarmed again, the same router serves.
  EXPECT_EQ(router.Forward({"s", "<html/>"}).source, Source::kTemplate);
}

TEST(FleetRouterTest, BatchIsIndexAddressedAndHonorsTheDeadline) {
  FakeWorker worker("w");
  RouterOptions options;
  Router router({{Local(worker.port)}}, options);

  std::vector<Request> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back({"site" + std::to_string(i), "<html/>"});
  }
  std::vector<Response> responses = router.ForwardBatch(requests, Deadline{});
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].pagelet_path, "w:" + requests[i].site);
  }

  SimulatedClock clock;
  Deadline expired = Deadline::After(&clock, 5.0);
  clock.SleepMs(10.0);
  responses = router.ForwardBatch(requests, expired);
  ASSERT_EQ(responses.size(), requests.size());
  for (const Response& response : responses) {
    EXPECT_EQ(response.source, Source::kDeadline);
  }
}

}  // namespace
}  // namespace thor::fleet
