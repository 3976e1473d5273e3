#ifndef THOR_SERVE_SERVER_LOOP_H_
#define THOR_SERVE_SERVER_LOOP_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "src/serve/extraction_service.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"

namespace thor::serve {

/// Tuning knobs for the daemon request loop.
struct ServerLoopOptions {
  /// Max requests per ExtractBatch. The worker waits for a full batch
  /// (unless input ends or drain is requested), so batch boundaries — and
  /// therefore the response stream — depend only on the input, not on
  /// scheduling.
  int batch = 32;
  /// Admission control: queued-but-unprocessed requests beyond this are
  /// shed immediately (a `shed` response in stream order, `serve.shed`
  /// counted) instead of buffered without bound. 0 disables shedding —
  /// the queue grows with the backlog, which keeps the stream independent
  /// of producer/consumer timing (the determinism-test configuration).
  size_t max_backlog = 0;
  /// Per-batch extraction deadline in milliseconds on `clock` (0 = none);
  /// see ExtractionService::ExtractBatch.
  double batch_deadline_ms = 0.0;
  /// Time source for deadlines and the uptime gauge (null = wall clock).
  const Clock* clock = nullptr;
  /// Optional sink for serve.shed/serve.drained counters and the
  /// serve.queue_depth/serve.uptime_ms gauges.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Overload-safe producer/consumer core of the thord daemon.
///
/// One producer thread (the stdin reader) submits parsed requests and
/// pass-through responses; one consumer thread runs `Run`, batching
/// requests through an ExtractionService and emitting every response in
/// submission order. Decoupling the two is what makes overload a real
/// state: the producer can race ahead of extraction, the queue measures
/// the backlog, and admission control sheds — deterministically from the
/// client's perspective (a `shed` response, never silence) — once the
/// backlog bound is hit.
///
/// Shutdown is a first-class path, exercised by the crash-recovery chaos
/// suite's graceful half:
///   - RequestDrain(): finish the in-flight batch, answer every queued
///     request with a `shed` "draining" response, flush, return. This is
///     thord's SIGTERM behavior — the response stream stays complete.
///   - CancelInFlight(): additionally expire the in-flight batch's
///     deadline (second signal), degrading its unfinished requests to
///     typed deadline responses instead of waiting out the extraction.
class ServerLoop {
 public:
  using Response = ExtractionService::Response;
  /// Called on the consumer thread, in submission order.
  using EmitFn = std::function<void(const std::string& site,
                                    const Response& response)>;
  /// Tagged variant: `tag` is the producer's opaque routing key (the
  /// network front-end uses connection ids), echoed back untouched.
  using TaggedEmitFn = std::function<void(
      uint64_t tag, const std::string& site, const Response& response)>;

  /// What the consumer thread runs each dequeued batch through: one
  /// index-addressed Response per Request. The canonical handler is
  /// ExtractionService::ExtractBatch (the service constructor below); the
  /// fleet router substitutes HTTP forwarding to remote workers, reusing
  /// the queueing, batching, drain, and emission-order machinery as-is.
  using BatchFn = std::function<std::vector<Response>(
      const std::vector<ExtractionService::Request>& requests,
      const Deadline& deadline)>;

  ServerLoop(ExtractionService* service, ServerLoopOptions options = {});
  ServerLoop(BatchFn handler, ServerLoopOptions options = {});

  // --- producer side (thread-safe) ---------------------------------------

  /// Submits one request. Returns false when admission control shed it
  /// (the shed response is still emitted in order). `tag` is an opaque
  /// routing key echoed back at emission (0 for the stdio front-end).
  bool Submit(std::string site, std::string html) {
    return Submit(0, std::move(site), std::move(html));
  }
  bool Submit(uint64_t tag, std::string site, std::string html);

  /// Submits an already-formed response (parse error, oversized line) so
  /// it occupies its stream position without touching the service.
  void SubmitImmediate(std::string site, Response response) {
    SubmitImmediate(0, std::move(site), std::move(response));
  }
  void SubmitImmediate(uint64_t tag, std::string site, Response response);

  /// Declares end of input: Run returns once the queue is drained.
  void FinishInput();

  /// Releases whatever is queued as a (possibly short) batch even though
  /// input has not finished. The network front-end calls this after each
  /// read burst: a socket producer has no end-of-input to release a
  /// partial batch with, and waiting for a full batch would deadlock a
  /// client that sent fewer than `batch` requests and now awaits the
  /// responses. The stdio front-end never kicks, so its batch boundaries
  /// (and the determinism contract built on them) are unchanged.
  void Kick();

  /// Graceful shutdown: stop processing new batches after the in-flight
  /// one, answer the queued remainder with draining `shed` responses.
  void RequestDrain();

  /// Expires the in-flight batch's deadline (and every later one). Pair
  /// with RequestDrain for a fast-but-complete shutdown.
  void CancelInFlight();

  // --- consumer side ------------------------------------------------------

  /// Processes until FinishInput (queue drained) or RequestDrain. `flush`
  /// runs after each batch's responses are emitted. Call from exactly one
  /// thread.
  void Run(const EmitFn& emit, const std::function<void()>& flush);
  void Run(const TaggedEmitFn& emit, const std::function<void()>& flush);

  /// Point-in-time tallies (thread-safe).
  struct Counters {
    int64_t submitted = 0;  ///< requests admitted into the queue
    int64_t shed = 0;       ///< requests refused by admission control
    int64_t drained = 0;    ///< queued requests answered as draining shed
    int64_t processed = 0;  ///< requests that reached ExtractBatch
    int64_t batches = 0;    ///< ExtractBatch calls issued
  };
  Counters counters() const;

  /// Current queued-request backlog (requests only, immediates excluded).
  size_t QueueDepth() const;

 private:
  struct Item {
    bool immediate = false;
    uint64_t tag = 0;   ///< producer routing key, echoed at emission
    std::string site;
    Response response;  ///< when immediate
    std::string html;   ///< when !immediate
  };

  void UpdateQueueGauge();

  BatchFn handler_;
  ServerLoopOptions options_;
  const Clock* clock_;
  StopSource cancel_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  size_t queued_requests_ = 0;
  bool input_done_ = false;
  bool drain_requested_ = false;
  bool kicked_ = false;
  Counters counters_;
};

}  // namespace thor::serve

#endif  // THOR_SERVE_SERVER_LOOP_H_
