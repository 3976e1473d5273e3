#ifndef THOR_DEEPWEB_RESILIENT_PROBER_H_
#define THOR_DEEPWEB_RESILIENT_PROBER_H_

#include <string>
#include <vector>

#include "src/deepweb/prober.h"
#include "src/deepweb/transport.h"
#include "src/util/backoff.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace thor::deepweb {

/// Retry policy for one probe session.
struct RetryPolicy {
  /// Fetch attempts per query word (1 = no retries).
  int max_attempts_per_query = 4;
  BackoffPolicy backoff;
  /// Seed of the per-word jitter streams (independent of the word mix).
  uint64_t jitter_seed = 42;
};

/// Circuit-breaker tuning (standard closed -> open -> half-open machine).
struct CircuitBreakerOptions {
  /// Consecutive transient failures that open the breaker.
  int failure_threshold = 5;
  /// Cooldown before an open breaker admits half-open trial requests.
  double open_duration_ms = 5000.0;
  /// Consecutive half-open successes required to close again.
  int half_open_successes = 2;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// \brief Per-site circuit breaker.
///
/// Closed: requests flow; consecutive transient failures count up and trip
/// the breaker at the threshold. Open: requests are rejected until the
/// cooldown elapses on the injected clock, then the breaker turns
/// half-open. Half-open: requests flow as trials; a failure reopens
/// immediately, `half_open_successes` consecutive successes close.
/// Not thread-safe; one breaker guards one site's serial probe session.
class CircuitBreaker {
 public:
  CircuitBreaker(const CircuitBreakerOptions& options, const Clock* clock);

  /// True when a request may be issued now (transitions open -> half-open
  /// once the cooldown has elapsed).
  bool AllowRequest();
  void RecordSuccess();
  /// Records a transient failure. Permanent errors are real answers from a
  /// healthy server and must not be fed to the breaker.
  void RecordFailure();

  BreakerState state() const { return state_; }
  /// Closed -> open transitions so far.
  int trips() const { return trips_; }
  /// Milliseconds until an open breaker admits requests again (0 when not
  /// open).
  double CooldownRemainingMs() const;

 private:
  CircuitBreakerOptions options_;
  const Clock* clock_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int trips_ = 0;
  double opened_at_ms_ = 0.0;
};

/// Degradation accounting for one probe session.
struct ProbeStats {
  int words_planned = 0;
  int pages_collected = 0;
  /// Total fetch attempts, including retries.
  int attempts = 0;
  int retries = 0;
  int timeouts = 0;
  int connection_resets = 0;
  int server_errors = 0;
  int rate_limited = 0;
  int permanent_failures = 0;
  /// Successful fetches whose body arrived truncated (kept; downstream
  /// validation decides whether the page is still usable).
  int truncated_pages = 0;
  /// Words given up on (retries exhausted, a permanent error, or breaker
  /// open past its patience).
  int abandoned_words = 0;
  /// Subset of abandoned_words dropped because the session deadline (or a
  /// stop request) fired before they could be fetched.
  int deadline_abandoned = 0;
  int breaker_trips = 0;
  /// Fetches the breaker refused to issue.
  int breaker_rejections = 0;
  /// Simulated milliseconds spent waiting (backoff + breaker cooldowns).
  double backoff_wait_ms = 0.0;
  /// Simulated milliseconds of transport service time.
  double transport_ms = 0.0;

  void Add(const ProbeStats& other);
  /// One-line human-readable summary for CLI output.
  std::string ToString() const;
  /// Adds every tally to `metrics` as a "probe.*" counter (wait/transport
  /// milliseconds become "probe.*_ms" gauges, accumulated with Add). Null
  /// registry is a no-op.
  void ExportTo(MetricsRegistry* metrics) const;
};

struct ResilientProbeOptions {
  /// Word mix (dictionary + nonsense counts, word seed).
  ProbeOptions plan;
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  /// When the breaker is open, the prober waits out the cooldown (a polite
  /// crawler backing off) at most this many times per session before
  /// abandoning all remaining words.
  int max_breaker_waits = 3;
  /// Session deadline / stop token, checked before every fetch and every
  /// backoff wait. Expiry degrades the session to the pages collected so
  /// far (remaining words counted in stats.deadline_abandoned); only a
  /// session that expires with zero pages returns kDeadlineExceeded.
  Deadline deadline;
  /// Optional observability sink: the session's final ProbeStats are
  /// exported here (see ProbeStats::ExportTo) whether or not the session
  /// succeeds, so abandoned sessions still leave their tallies behind.
  MetricsRegistry* metrics = nullptr;
};

struct ResilientProbeResult {
  /// Successfully fetched pages, in plan order (abandoned words leave no
  /// entry). Nonsense-word responses carry from_nonsense_probe.
  std::vector<QueryResponse> responses;
  ProbeStats stats;
};

/// \brief Stage 1: fetches every word of the probe plan through
/// `transport`, dictionary words first, with retries, exponential backoff
/// with deterministic jitter, transient-vs-permanent error classification,
/// and a per-site circuit breaker.
///
/// The pipeline's only prober: over a DirectTransport no fetch fails, so
/// it returns one page per planned word. Deterministic: given the same
/// options and a deterministic transport (DirectTransport or
/// FaultInjectingTransport), the returned responses and stats are
/// bit-identical run to run. Errors only when the session collects zero
/// pages — partial loss is reported through `stats`, not an error, so the
/// pipeline can degrade gracefully.
Result<ResilientProbeResult> ResilientProbeSite(
    SiteTransport* transport, const ResilientProbeOptions& options,
    Clock* clock = nullptr);

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_RESILIENT_PROBER_H_
