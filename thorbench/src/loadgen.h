#ifndef THORBENCH_LOADGEN_H_
#define THORBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/util/status.h"

namespace thorbench {

/// Steady-clock milliseconds (the one clock every benchmark timestamp
/// uses, so client- and server-side marks compare directly).
double NowMs();

/// One request of a phase: when it is due (ms after the phase starts) and
/// which pre-rendered payload it sends.
struct Scheduled {
  double at_ms = 0.0;
  uint32_t payload = 0;
};

/// Poisson arrivals at `rate_rps` for `duration_ms`, payloads drawn by
/// `pick` (called once per arrival, in order). Deterministic in `seed`.
std::vector<Scheduled> PoissonSchedule(double rate_rps, double duration_ms,
                                       uint64_t seed,
                                       const std::function<uint32_t()>& pick);

/// What happened to one scheduled request.
struct Record {
  uint32_t payload = 0;
  int conn = -1;
  double sched_ms = 0.0;  ///< absolute due time
  double recv_ms = 0.0;   ///< absolute time the full response was read
  bool answered = false;
  bool ok = false;        ///< the response check accepted it
};

/// Result of one open-loop phase.
struct PhaseResult {
  double start_ms = 0.0;  ///< absolute phase start (schedule origin)
  double end_ms = 0.0;    ///< absolute time the last response arrived
  std::vector<Record> records;
  /// Outstanding (sent - answered) requests, sampled every
  /// `kOutstandingSampleMs` while the schedule was still sending.
  std::vector<double> outstanding;
  /// Per request: how late it went out relative to its schedule.
  std::vector<double> late_ms;
  int64_t failures = 0;  ///< unanswered, transport errors, rejected checks

  /// Latencies (receipt - scheduled send) of accepted responses.
  std::vector<double> LatenciesMs() const;
};

/// \brief Single-thread open-loop load generator over a few keep-alive
/// connections.
///
/// Requests go out when they are due, whether or not earlier ones have
/// been answered: queue depth comes from pipelining on at most `nproc`
/// connections, never from extra client threads, so the numbers measure
/// the server rather than the scheduler. Latency is timed from the
/// *scheduled* send, which charges a server stall to every request it
/// delays. Responses pair with requests through each connection's FIFO
/// (the server answers each connection in order).
class OpenLoopClient {
 public:
  enum class Protocol { kNdjson, kHttp };

  /// Accepts or rejects one response: its request record (payload and
  /// timestamps), record index, HTTP status (200 for NDJSON), and the JSON
  /// response line without its newline.
  using Check = std::function<bool(const Record& record, size_t index,
                                   int status, std::string_view body)>;
  /// Called on every loop turn with the current time and the phase's
  /// schedule origin; lets a workload move state on a schedule (drift
  /// epochs) or sample server gauges.
  using Tick = std::function<void(double now_ms, double start_ms)>;

  OpenLoopClient(Protocol protocol, int connections);

  thor::Status Connect(uint16_t port);
  int connections() const { return static_cast<int>(conns_.size()); }

  /// Sends `schedule` against `payloads` (pre-rendered wire bytes), waits
  /// up to `drain_ms` after the last send for outstanding responses, and
  /// returns what happened. Requests go round-robin over the connections
  /// unless `conn_of` pins them.
  PhaseResult Run(const std::vector<Scheduled>& schedule,
                  const std::vector<std::string>& payloads, const Check& check,
                  const Tick& tick = nullptr, double drain_ms = 5000.0,
                  const std::vector<int>* conn_of = nullptr);

  /// Where a sent request lives: the Run call (0-based since Connect) and
  /// its record index in that call's PhaseResult.
  struct SentRef {
    int phase = 0;
    uint32_t record = 0;
  };
  /// Every request sent on each connection since Connect, in send order —
  /// what traced runs pair the server's per-connection emissions against.
  const std::vector<std::vector<SentRef>>& sent_log() const {
    return sent_log_;
  }

  static constexpr double kOutstandingSampleMs = 5.0;

 private:
  struct Conn {
    thor::net::Socket sock;
    std::string outbox;
    size_t outbox_offset = 0;
    std::string inbox;
    thor::net::HttpResponseParser parser;
    std::vector<size_t> inflight;  ///< record indices, FIFO
    size_t inflight_head = 0;
    bool broken = false;
  };

  bool Flush(Conn& conn);
  /// Reads and dispatches every complete response; false on a broken
  /// connection.
  bool Drain(Conn& conn, PhaseResult* result, const Check& check);
  void Deliver(Conn& conn, PhaseResult* result, const Check& check,
               int status, std::string_view body, double now);

  Protocol protocol_;
  std::vector<Conn> conns_;
  std::vector<std::vector<SentRef>> sent_log_;
  int phases_run_ = 0;
};

/// Wire bytes of one extraction request in the given protocol.
std::string RenderRequest(OpenLoopClient::Protocol protocol,
                          const std::string& json_line);

}  // namespace thorbench

#endif  // THORBENCH_LOADGEN_H_
