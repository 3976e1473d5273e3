#include "src/deepweb/resilient_prober.h"

#include <algorithm>
#include <cstdio>

namespace thor::deepweb {

namespace {

void CountTransportError(TransportError error, ProbeStats* stats) {
  switch (error) {
    case TransportError::kTimeout:
      ++stats->timeouts;
      break;
    case TransportError::kConnectionReset:
      ++stats->connection_resets;
      break;
    case TransportError::kServerError:
      ++stats->server_errors;
      break;
    case TransportError::kRateLimited:
      ++stats->rate_limited;
      break;
    case TransportError::kPermanent:
      ++stats->permanent_failures;
      break;
    case TransportError::kNone:
      break;
  }
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options,
                               const Clock* clock)
    : options_(options), clock_(clock) {}

bool CircuitBreaker::AllowRequest() {
  if (state_ == BreakerState::kOpen) {
    if (clock_->NowMs() - opened_at_ms_ >= options_.open_duration_ms) {
      state_ = BreakerState::kHalfOpen;
      half_open_successes_ = 0;
      return true;
    }
    return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  if (state_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= options_.half_open_successes) {
      state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
    }
    return;
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::RecordFailure() {
  if (state_ == BreakerState::kHalfOpen) {
    // A trial request failed: the site is still unhealthy.
    state_ = BreakerState::kOpen;
    opened_at_ms_ = clock_->NowMs();
    ++trips_;
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= options_.failure_threshold) {
    state_ = BreakerState::kOpen;
    opened_at_ms_ = clock_->NowMs();
    ++trips_;
  }
}

double CircuitBreaker::CooldownRemainingMs() const {
  if (state_ != BreakerState::kOpen) return 0.0;
  double elapsed = clock_->NowMs() - opened_at_ms_;
  return std::max(options_.open_duration_ms - elapsed, 0.0);
}

void ProbeStats::Add(const ProbeStats& other) {
  words_planned += other.words_planned;
  pages_collected += other.pages_collected;
  attempts += other.attempts;
  retries += other.retries;
  timeouts += other.timeouts;
  connection_resets += other.connection_resets;
  server_errors += other.server_errors;
  rate_limited += other.rate_limited;
  permanent_failures += other.permanent_failures;
  truncated_pages += other.truncated_pages;
  abandoned_words += other.abandoned_words;
  deadline_abandoned += other.deadline_abandoned;
  breaker_trips += other.breaker_trips;
  breaker_rejections += other.breaker_rejections;
  backoff_wait_ms += other.backoff_wait_ms;
  transport_ms += other.transport_ms;
}

void ProbeStats::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  AddCounter(metrics, "probe.words_planned", words_planned);
  AddCounter(metrics, "probe.pages_collected", pages_collected);
  AddCounter(metrics, "probe.attempts", attempts);
  AddCounter(metrics, "probe.retries", retries);
  AddCounter(metrics, "probe.timeouts", timeouts);
  AddCounter(metrics, "probe.connection_resets", connection_resets);
  AddCounter(metrics, "probe.server_errors", server_errors);
  AddCounter(metrics, "probe.rate_limited", rate_limited);
  AddCounter(metrics, "probe.permanent_failures", permanent_failures);
  AddCounter(metrics, "probe.truncated_pages", truncated_pages);
  AddCounter(metrics, "probe.abandoned_words", abandoned_words);
  AddCounter(metrics, "probe.deadline_abandoned", deadline_abandoned);
  AddCounter(metrics, "probe.breaker_trips", breaker_trips);
  AddCounter(metrics, "probe.breaker_rejections", breaker_rejections);
  AddGauge(metrics, "probe.backoff_wait_ms", backoff_wait_ms);
  AddGauge(metrics, "probe.transport_ms", transport_ms);
}

std::string ProbeStats::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "words=%d pages=%d attempts=%d retries=%d abandoned=%d deadline=%d "
      "(timeout=%d reset=%d 5xx=%d 429=%d 4xx=%d truncated=%d) "
      "breaker[trips=%d rejections=%d] wait=%.0fms transport=%.0fms",
      words_planned, pages_collected, attempts, retries, abandoned_words,
      deadline_abandoned, timeouts, connection_resets, server_errors,
      rate_limited, permanent_failures, truncated_pages, breaker_trips,
      breaker_rejections, backoff_wait_ms, transport_ms);
  return buf;
}

Result<ResilientProbeResult> ResilientProbeSite(
    SiteTransport* transport, const ResilientProbeOptions& options,
    Clock* clock) {
  // With no clock injected, waits happen on a private simulated clock:
  // chaos sessions complete instantly and remain deterministic.
  SimulatedClock local_clock;
  if (clock == nullptr) clock = &local_clock;

  ProbePlan plan = MakeProbePlan(options.plan);
  ResilientProbeResult result;
  ProbeStats& stats = result.stats;
  stats.words_planned = static_cast<int>(plan.dictionary_words.size() +
                                         plan.nonsense_words.size());

  CircuitBreaker breaker(options.breaker, clock);
  int breaker_waits = 0;
  bool session_abandoned = false;

  auto probe_word = [&](const std::string& word, bool nonsense) {
    if (options.deadline.expired()) {
      ++stats.abandoned_words;
      ++stats.deadline_abandoned;
      return;
    }
    if (session_abandoned) {
      ++stats.abandoned_words;
      return;
    }
    Rng jitter_rng(options.retry.jitter_seed ^ HashKeyword(word));
    int attempt = 0;
    while (true) {
      while (!breaker.AllowRequest()) {
        if (options.deadline.expired()) {
          ++stats.abandoned_words;
          ++stats.deadline_abandoned;
          return;
        }
        ++stats.breaker_rejections;
        if (breaker_waits >= options.max_breaker_waits) {
          // The site looks down for good; stop hammering it.
          session_abandoned = true;
          ++stats.abandoned_words;
          return;
        }
        ++breaker_waits;
        double wait = breaker.CooldownRemainingMs();
        clock->SleepMs(wait);
        stats.backoff_wait_ms += wait;
      }
      ++attempt;
      ++stats.attempts;
      FetchResult fetch = transport->Fetch(word);
      stats.transport_ms += fetch.latency_ms;
      if (fetch.ok()) {
        breaker.RecordSuccess();
        if (fetch.truncated_body) ++stats.truncated_pages;
        fetch.response.from_nonsense_probe = nonsense;
        result.responses.push_back(std::move(fetch.response));
        ++stats.pages_collected;
        return;
      }
      CountTransportError(fetch.error, &stats);
      if (!IsTransientError(fetch.error)) {
        // The server answered definitively; retrying cannot help and the
        // connection is healthy, so the breaker is not charged.
        ++stats.abandoned_words;
        return;
      }
      breaker.RecordFailure();
      if (attempt >= options.retry.max_attempts_per_query) {
        ++stats.abandoned_words;
        return;
      }
      ++stats.retries;
      double delay =
          BackoffDelayMs(options.retry.backoff, attempt, &jitter_rng);
      // Honor an explicit server throttle hint when it exceeds our own
      // schedule.
      delay = std::max(delay, fetch.retry_after_ms);
      clock->SleepMs(delay);
      stats.backoff_wait_ms += delay;
      // A backoff wait may have consumed what was left of the deadline;
      // give the word up rather than issue a fetch past it.
      if (options.deadline.expired()) {
        ++stats.abandoned_words;
        ++stats.deadline_abandoned;
        return;
      }
    }
  };

  for (const std::string& word : plan.dictionary_words) {
    probe_word(word, /*nonsense=*/false);
  }
  for (const std::string& word : plan.nonsense_words) {
    probe_word(word, /*nonsense=*/true);
  }
  stats.breaker_trips = breaker.trips();
  stats.ExportTo(options.metrics);

  if (result.responses.empty()) {
    if (stats.deadline_abandoned > 0 && options.deadline.expired()) {
      return Status::DeadlineExceeded(
          "resilient probe deadline expired before any page arrived: " +
          stats.ToString());
    }
    return Status::Internal("resilient probe collected no pages: " +
                            stats.ToString());
  }
  return result;
}

}  // namespace thor::deepweb
