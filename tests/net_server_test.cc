// End-to-end exercises of the TCP/HTTP front-end over real loopback
// sockets: NDJSON roundtrips, keep-alive pipelining, typed oversize/parse
// errors in stream order, the half-closed-peer EPIPE regression, and the
// drain path. The extraction behind the wire is an empty store (every
// request answers deterministically as a kMiss), because what is under
// test here is framing, routing, and connection lifecycle — not templates.

#include "src/net/net_server.h"

#include <sys/socket.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "src/serve/wire.h"
#include "src/util/deadline.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"

namespace thor::net {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("thor_net_" + name);
  fs::remove_all(dir);
  return dir.string();
}

constexpr const char* kPage = "<html><body><p>x</p></body></html>";

/// A live networked serving stack: store → service → loop → NetServer,
/// with the consumer thread running until drain.
struct NetWorld {
  explicit NetWorld(const std::string& name, NetServerOptions net_options = {},
                    serve::ServerLoopOptions loop_options = {})
      : store(serve::TemplateStore::Open(FreshDir(name))) {
    EXPECT_TRUE(store.ok());
    serve::ServiceOptions service_options;
    service_options.metrics = &metrics;
    service.emplace(&*store, service_options);
    loop_options.metrics = &metrics;
    loop.emplace(&*service, loop_options);
    net_options.metrics = &metrics;
    server.emplace(&*loop, net_options);
    auto bound = server->Start();
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    port = *bound;
    worker = std::thread([this] {
      loop->Run(
          [this](uint64_t tag, const std::string& site,
                 const serve::ServerLoop::Response& response) {
            server->Deliver(tag, site, response);
          },
          [] {});
    });
  }

  ~NetWorld() {
    server->BeginDrain();
    worker.join();
    server->Shutdown(2000.0);
  }

  Result<serve::TemplateStore> store;
  MetricsRegistry metrics;
  std::optional<serve::ExtractionService> service;
  std::optional<serve::ServerLoop> loop;
  std::optional<NetServer> server;
  std::thread worker;
  uint16_t port = 0;
};

Deadline TestDeadline() {
  return Deadline::After(SystemClock::Instance(), 10000.0);
}

/// Writes all of `payload`, honoring readiness.
void SendAll(Socket& sock, std::string_view payload) {
  Deadline deadline = TestDeadline();
  size_t sent = 0;
  while (sent < payload.size()) {
    IoResult io =
        WriteSome(sock.fd(), payload.data() + sent, payload.size() - sent);
    if (io.status == IoStatus::kOk) {
      sent += io.bytes;
    } else if (io.status == IoStatus::kWouldBlock) {
      ASSERT_TRUE(WaitReady(sock.fd(), /*for_write=*/true, deadline).ok());
    } else {
      FAIL() << "socket died mid-send";
    }
  }
}

/// Reads until the peer closes; returns everything received.
std::string ReadToEof(Socket& sock) {
  Deadline deadline = TestDeadline();
  std::string out;
  char buf[16384];
  for (;;) {
    IoResult io = ReadSome(sock.fd(), buf, sizeof(buf));
    if (io.status == IoStatus::kOk) {
      out.append(buf, io.bytes);
    } else if (io.status == IoStatus::kWouldBlock) {
      if (!WaitReady(sock.fd(), /*for_write=*/false, deadline).ok()) break;
    } else {
      break;
    }
  }
  return out;
}

/// One NDJSON session: connect, send, half-close, read the full stream.
std::string NdjsonExchange(uint16_t port, const std::string& payload) {
  auto sock = ConnectTcp("127.0.0.1", port, TestDeadline());
  EXPECT_TRUE(sock.ok()) << sock.status().ToString();
  SendAll(*sock, payload);
  ::shutdown(sock->fd(), SHUT_WR);
  return ReadToEof(*sock);
}

std::vector<std::string> SplitLines(const std::string& stream) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < stream.size()) {
    size_t end = stream.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(stream.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Reads exactly `count` pipelined HTTP responses off one socket.
std::vector<HttpResponse> ReadResponses(Socket& sock, int count) {
  Deadline deadline = TestDeadline();
  std::vector<HttpResponse> responses;
  HttpResponseParser parser;
  std::string inbox;
  char buf[16384];
  while (static_cast<int>(responses.size()) < count) {
    size_t consumed = 0;
    ParseState state = parser.Feed(inbox, &consumed);
    inbox.erase(0, consumed);
    if (state == ParseState::kDone) {
      responses.push_back(parser.response());
      parser.Reset();
      continue;
    }
    EXPECT_NE(state, ParseState::kError) << parser.error().ToString();
    IoResult io = ReadSome(sock.fd(), buf, sizeof(buf));
    if (io.status == IoStatus::kOk) {
      inbox.append(buf, io.bytes);
    } else if (io.status == IoStatus::kWouldBlock) {
      EXPECT_TRUE(WaitReady(sock.fd(), /*for_write=*/false, deadline).ok());
    } else {
      ADD_FAILURE() << "connection closed after " << responses.size()
                    << " responses";
      break;
    }
  }
  return responses;
}

TEST(NetServerTest, NdjsonRoundtripInSubmissionOrder) {
  NetWorld world("ndjson");
  std::string payload;
  for (const char* site : {"alpha", "beta", "gamma"}) {
    payload += std::string("{\"site\":\"") + site +
               "\",\"html\":\"" + kPage + "\"}\n";
  }
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"site\":\"alpha\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"site\":\"beta\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"site\":\"gamma\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"source\":\"miss\""), std::string::npos) << line;
  }
}

TEST(NetServerTest, FinalRequestWithoutNewlineStillAnswered) {
  NetWorld world("nonewline");
  std::string payload =
      std::string("{\"site\":\"tail\",\"html\":\"") + kPage + "\"}";
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"site\":\"tail\""), std::string::npos);
}

TEST(NetServerTest, TypedErrorsHoldTheirStreamPositions) {
  NetServerOptions net_options;
  net_options.limits.max_line_bytes = 256;
  NetWorld world("typed_errors", net_options);
  std::string payload = "this is not json\n";
  payload += "{\"site\":\"big\",\"html\":\"" + std::string(600, 'x') + "\"}\n";
  payload += std::string("{\"site\":\"ok\",\"html\":\"") + kPage + "\"}\n";
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("bad request"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"source\":\"shed\""), std::string::npos);
  EXPECT_NE(lines[1].find("request too large"), std::string::npos);
  EXPECT_NE(lines[2].find("\"site\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"source\":\"miss\""), std::string::npos);
}

TEST(NetServerTest, NdjsonMatchesTheSharedWireRenderer) {
  // The TCP stream must be byte-identical to what serve/wire renders —
  // the same function the stdio front-end prints through.
  NetWorld world("wire_parity");
  std::string payload =
      std::string("{\"site\":\"parity\",\"html\":\"") + kPage + "\"}\n";
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 1u);
  auto response = world.service->Extract({"parity", kPage});
  EXPECT_EQ(lines[0], serve::ResponseToJson("parity", response));
}

TEST(NetServerTest, FileRequestsReadOnlyBoundedRegularFiles) {
  // A "file" request is read on the loop thread: /dev/zero never ends, a
  // FIFO never opens for reading without a writer, and a file past the
  // request bound would buffer without limit. Each costs one bad-request
  // line in stream order; the connection keeps serving.
  NetServerOptions net_options;
  net_options.limits.max_line_bytes = 4096;
  NetWorld world("file_bounds", net_options);
  const fs::path dir = FreshDir("file_bounds_pages");
  fs::create_directories(dir);
  const std::string fifo = (dir / "pipe").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string over = (dir / "over.html").string();
  std::ofstream(over) << std::string(4097, 'x');
  const std::string at_bound = (dir / "at_bound.html").string();
  std::ofstream(at_bound) << std::string(4096, 'x');
  const std::string page = (dir / "page.html").string();
  std::ofstream(page) << kPage;

  std::string payload;
  for (const std::string& path :
       {std::string("/dev/zero"), fifo, over, at_bound, page}) {
    payload += "{\"site\":\"s\",\"file\":\"" + path + "\"}\n";
  }
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("bad request: not a regular file"),
            std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("bad request: not a regular file"),
            std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("bad request: file too large"), std::string::npos)
      << lines[2];
  EXPECT_EQ(lines[3].find("bad request"), std::string::npos) << lines[3];
  EXPECT_EQ(lines[4], serve::ResponseToJson(
                          "s", world.service->Extract({"s", kPage})));

  // POST /extract holds its file to the body bound the same way.
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string wire = SerializeRequest(
      "POST", "/extract", "{\"site\":\"s\",\"file\":\"/dev/zero\"}");
  wire += SerializeRequest("POST", "/extract",
                           "{\"site\":\"s\",\"file\":\"" + page + "\"}");
  SendAll(*sock, wire);
  std::vector<HttpResponse> responses = ReadResponses(*sock, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status_code, 400);
  EXPECT_NE(responses[0].body.find("bad request"), std::string::npos);
  EXPECT_EQ(responses[1].status_code, 200);
  EXPECT_NE(responses[1].body.find("\"source\":\"miss\""),
            std::string::npos);
}

TEST(NetServerTest, HttpKeepAlivePipelining) {
  NetWorld world("http_pipeline");
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string body =
      std::string("{\"site\":\"h1\",\"html\":\"") + kPage + "\"}";
  std::string wire = SerializeRequest("POST", "/extract", body);
  wire += SerializeRequest("GET", "/healthz", "");
  wire += SerializeRequest("POST", "/extract", body);
  SendAll(*sock, wire);
  std::vector<HttpResponse> responses = ReadResponses(*sock, 3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status_code, 200);
  EXPECT_NE(responses[0].body.find("\"source\":\"miss\""), std::string::npos);
  EXPECT_EQ(responses[1].status_code, 200);
  EXPECT_EQ(responses[1].body, "ok\n");
  EXPECT_EQ(responses[2].status_code, 200);
  EXPECT_TRUE(responses[2].keep_alive);
}

TEST(NetServerTest, HttpRoutingErrorsAreTyped) {
  NetWorld world("http_routing");
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string wire = SerializeRequest("GET", "/nope", "");
  wire += SerializeRequest("POST", "/healthz", "");
  wire += SerializeRequest("POST", "/extract", "not json at all");
  SendAll(*sock, wire);
  std::vector<HttpResponse> responses = ReadResponses(*sock, 3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status_code, 404);
  EXPECT_EQ(responses[1].status_code, 405);
  EXPECT_EQ(responses[2].status_code, 400);
  EXPECT_NE(responses[2].body.find("bad request"), std::string::npos);
}

TEST(NetServerTest, HttpMetricsEndpointServesSnapshot) {
  NetWorld world("http_metrics");
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  SendAll(*sock, SerializeRequest("GET", "/metrics", ""));
  std::vector<HttpResponse> responses = ReadResponses(*sock, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status_code, 200);
  EXPECT_NE(responses[0].body.find("net.accepted"), std::string::npos);
}

TEST(NetServerTest, OversizedHttpHeadClosesWithTypedStatus) {
  NetServerOptions net_options;
  net_options.limits.max_header_bytes = 256;
  NetWorld world("http_oversize", net_options);
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string wire =
      "GET /healthz HTTP/1.1\r\nX-Pad: " + std::string(1000, 'p') +
      "\r\n\r\n";
  SendAll(*sock, wire);
  std::string raw = ReadToEof(*sock);  // server answers once, then closes
  EXPECT_NE(raw.find("431"), std::string::npos) << raw;
}

TEST(NetServerTest, HalfClosedPeerBecomesTypedCloseNotSigpipe) {
  // The satellite-1 regression: a client that vanishes before reading its
  // response must cost the server one connection, never the process.
  NetWorld world("epipe");
  {
    auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
    ASSERT_TRUE(sock.ok());
    // A large enough burst that the response cannot fit in kernel buffers
    // already acked; then slam the connection shut without reading.
    std::string payload;
    for (int i = 0; i < 64; ++i) {
      payload += std::string("{\"site\":\"gone\",\"html\":\"") + kPage +
                 "\"}\n";
    }
    SendAll(*sock, payload);
    struct linger hard = {1, 0};  // RST on close: the rudest departure
    ::setsockopt(sock->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    sock->Close();
  }
  // The server must still be alive and serving.
  std::string payload =
      std::string("{\"site\":\"alive\",\"html\":\"") + kPage + "\"}\n";
  std::vector<std::string> lines =
      SplitLines(NdjsonExchange(world.port, payload));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"site\":\"alive\""), std::string::npos);
}

TEST(NetServerTest, ConcurrentConnectionsAllAnswered) {
  NetWorld world("concurrent");
  constexpr int kClients = 64;
  std::vector<std::thread> clients;
  std::vector<std::string> streams(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&world, &streams, c] {
      std::string payload;
      for (int r = 0; r < 4; ++r) {
        payload += "{\"site\":\"c" + std::to_string(c) + "\",\"html\":\"" +
                   kPage + "\"}\n";
      }
      streams[static_cast<size_t>(c)] = NdjsonExchange(world.port, payload);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::string> lines = SplitLines(streams[static_cast<size_t>(c)]);
    ASSERT_EQ(lines.size(), 4u) << "client " << c;
    for (const std::string& line : lines) {
      EXPECT_NE(line.find("\"site\":\"c" + std::to_string(c) + "\""),
                std::string::npos);
    }
  }
}

TEST(NetServerTest, OverloadShedsAdvertiseRetryAfter) {
  // Tiny batches plus a delayed extraction stage force admission control
  // to shed most of a pipelined burst; every 503 must carry a Retry-After
  // hint so polite clients (the fleet router included) back off.
  serve::ServerLoopOptions loop_options;
  loop_options.batch = 1;
  loop_options.max_backlog = 1;
  NetWorld world("retry_after", {}, loop_options);
  ASSERT_TRUE(FailpointRegistry::Global()
                  ->Arm("serve.batch.extract", "delay=100")
                  .ok());
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string body =
      std::string("{\"site\":\"s\",\"html\":\"") + kPage + "\"}";
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += SerializeRequest("POST", "/extract", body);
  }
  SendAll(*sock, wire);
  std::vector<HttpResponse> responses = ReadResponses(*sock, 5);
  FailpointRegistry::Global()->DisarmAll();
  ASSERT_EQ(responses.size(), 5u);
  int sheds = 0;
  for (const HttpResponse& response : responses) {
    if (response.status_code != 503) continue;
    ++sheds;
    const std::string* hint = response.headers.Find("Retry-After");
    ASSERT_NE(hint, nullptr);
    EXPECT_GE(std::atoi(hint->c_str()), 1);
    EXPECT_NE(response.body.find("\"source\":\"shed\""), std::string::npos);
  }
  EXPECT_GT(sheds, 0);
}

TEST(NetServerTest, ExtraGetHandlerServesBesideTheBuiltinRoutes) {
  NetServerOptions net_options;
  net_options.extra_get =
      [](const std::string& path,
         const std::vector<std::pair<std::string, std::string>>& query,
         int* status, std::string* content_type, std::string* body) {
        if (path != "/custom") return false;
        for (const auto& [key, value] : query) {
          if (key == "missing" && value == "1") *status = 404;
        }
        *content_type = "text/plain";
        *body = "custom\n";
        return true;
      };
  NetWorld world("extra_get", net_options);
  auto sock = ConnectTcp("127.0.0.1", world.port, TestDeadline());
  ASSERT_TRUE(sock.ok());
  std::string wire = SerializeRequest("GET", "/custom", "");
  wire += SerializeRequest("GET", "/custom?missing=1", "");
  wire += SerializeRequest("GET", "/healthz", "");
  wire += SerializeRequest("GET", "/unrouted", "");
  SendAll(*sock, wire);
  std::vector<HttpResponse> responses = ReadResponses(*sock, 4);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].status_code, 200);
  EXPECT_EQ(responses[0].body, "custom\n");
  const std::string* type = responses[0].headers.Find("Content-Type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(*type, "text/plain");
  EXPECT_EQ(responses[1].status_code, 404);
  EXPECT_EQ(responses[1].body, "custom\n");
  // Builtin routes stay first in line; unhandled paths still 404.
  EXPECT_EQ(responses[2].status_code, 200);
  EXPECT_EQ(responses[2].body, "ok\n");
  EXPECT_EQ(responses[3].status_code, 404);
}

TEST(NetServerTest, DrainStopsAcceptingAndShutsDownCleanly) {
  auto world = std::make_unique<NetWorld>("drain");
  uint16_t port = world->port;
  std::string payload =
      std::string("{\"site\":\"pre\",\"html\":\"") + kPage + "\"}\n";
  EXPECT_EQ(SplitLines(NdjsonExchange(port, payload)).size(), 1u);
  // Destructor runs BeginDrain → worker join → Shutdown; the test is that
  // this completes (no hang) with a connection recently served.
  world.reset();
  // After teardown the port must refuse (or reset) new connections.
  auto sock = ConnectTcp("127.0.0.1", port, TestDeadline());
  if (sock.ok()) {
    std::string raw = ReadToEof(*sock);
    EXPECT_TRUE(raw.empty());
  }
}

}  // namespace
}  // namespace thor::net
