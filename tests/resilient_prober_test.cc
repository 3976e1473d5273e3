#include "src/deepweb/resilient_prober.h"

#include <deque>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/deepweb/site.h"
#include "src/deepweb/transport.h"
#include "src/util/clock.h"

namespace thor::deepweb {
namespace {

/// Scripted transport: each word answers with the queued error sequence
/// first, then succeeds forever after.
class ScriptedTransport : public SiteTransport {
 public:
  void FailNext(const std::string& word, TransportError error, int times,
                double retry_after_ms = 0.0) {
    for (int i = 0; i < times; ++i) {
      script_[word].push_back({error, retry_after_ms});
    }
  }

  FetchResult Fetch(std::string_view keyword) override {
    std::string word(keyword);
    ++fetches_;
    auto it = script_.find(word);
    if (it != script_.end() && !it->second.empty()) {
      Step step = it->second.front();
      it->second.erase(it->second.begin());
      FetchResult failed;
      failed.error = step.error;
      failed.retry_after_ms = step.retry_after_ms;
      failed.http_status = step.error == TransportError::kRateLimited ? 429
                           : step.error == TransportError::kServerError ? 503
                           : step.error == TransportError::kPermanent   ? 404
                                                                        : 0;
      return failed;
    }
    FetchResult ok;
    ok.response.query = word;
    ok.response.url = "scripted://" + word;
    ok.response.html = "<html><body><p>" + word + "</p></body></html>";
    ok.response.page_class = PageClass::kMultiMatch;
    return ok;
  }

  int fetches() const { return fetches_; }

 private:
  struct Step {
    TransportError error;
    double retry_after_ms;
  };
  std::map<std::string, std::vector<Step>> script_;
  int fetches_ = 0;
};

ResilientProbeOptions SmallOptions(int words = 5) {
  ResilientProbeOptions options;
  options.plan.num_dictionary_words = words;
  options.plan.num_nonsense_words = 0;
  options.plan.seed = 1234;
  return options;
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterThresholdConsecutiveFailures) {
  SimulatedClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options, &clock);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  SimulatedClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options, &clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, CooldownLeadsToHalfOpenThenCloses) {
  SimulatedClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_duration_ms = 1000.0;
  options.half_open_successes = 2;
  CircuitBreaker breaker(options, &clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_GT(breaker.CooldownRemainingMs(), 0.0);

  clock.SleepMs(999.0);
  EXPECT_FALSE(breaker.AllowRequest());
  clock.SleepMs(1.0);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.CooldownRemainingMs(), 0.0);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  SimulatedClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_duration_ms = 500.0;
  CircuitBreaker breaker(options, &clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  clock.SleepMs(500.0);
  ASSERT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.trips(), 2);
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
}

// ---------------------------------------------------------------------------
// ResilientProbeSite.
// ---------------------------------------------------------------------------

TEST(ResilientProbeSiteTest, CleanTransportCollectsEveryWord) {
  ScriptedTransport transport;
  auto result = ResilientProbeSite(&transport, SmallOptions(6));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->responses.size(), 6u);
  EXPECT_EQ(result->stats.pages_collected, 6);
  EXPECT_EQ(result->stats.attempts, 6);
  EXPECT_EQ(result->stats.retries, 0);
  EXPECT_EQ(result->stats.abandoned_words, 0);
  EXPECT_EQ(result->stats.words_planned, 6);
}

TEST(ResilientProbeSiteTest, FlakyWordsAreRetriedAndCollected) {
  ResilientProbeOptions options = SmallOptions(4);
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  transport.FailNext(plan.dictionary_words[0], TransportError::kTimeout, 2);
  transport.FailNext(plan.dictionary_words[2], TransportError::kServerError,
                     1);
  auto result = ResilientProbeSite(&transport, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->responses.size(), 4u);
  EXPECT_EQ(result->stats.attempts, 7);
  EXPECT_EQ(result->stats.retries, 3);
  EXPECT_EQ(result->stats.timeouts, 2);
  EXPECT_EQ(result->stats.server_errors, 1);
  EXPECT_EQ(result->stats.abandoned_words, 0);
  // Every retry waited out its backoff first.
  EXPECT_GT(result->stats.backoff_wait_ms, 0.0);
}

TEST(ResilientProbeSiteTest, HonorsServerRetryAfterHint) {
  ResilientProbeOptions options = SmallOptions(1);
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  transport.FailNext(plan.dictionary_words[0], TransportError::kRateLimited, 1,
                     /*retry_after_ms=*/4000.0);
  SimulatedClock clock;
  auto result = ResilientProbeSite(&transport, options, &clock);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->responses.size(), 1u);
  EXPECT_EQ(result->stats.rate_limited, 1);
  // The wait must be at least the server's hint, which dwarfs the
  // first-attempt backoff delay.
  EXPECT_GE(result->stats.backoff_wait_ms, 4000.0);
  EXPECT_GE(clock.NowMs(), 4000.0);
}

TEST(ResilientProbeSiteTest, HopelessWordIsAbandonedOthersSurvive) {
  ResilientProbeOptions options = SmallOptions(4);
  options.retry.max_attempts_per_query = 3;
  // Threshold above the per-word failure streak, so the breaker stays out
  // of the way.
  options.breaker.failure_threshold = 10;
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  transport.FailNext(plan.dictionary_words[1], TransportError::kTimeout, 50);
  auto result = ResilientProbeSite(&transport, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->responses.size(), 3u);
  EXPECT_EQ(result->stats.abandoned_words, 1);
  EXPECT_EQ(result->stats.timeouts, 3);
  // Three attempts at the hopeless word, one at each of the others.
  EXPECT_EQ(transport.fetches(), 6);
}

TEST(ResilientProbeSiteTest, PermanentErrorDoesNotChargeBreaker) {
  ResilientProbeOptions options = SmallOptions(6);
  options.breaker.failure_threshold = 2;
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  for (const std::string& word : plan.dictionary_words) {
    transport.FailNext(word, TransportError::kPermanent, 1);
  }
  auto result = ResilientProbeSite(&transport, options);
  // Every word 404s: the session collects nothing and reports an error,
  // but the breaker never trips because 4xx is a healthy server answering.
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("4xx=6"), std::string::npos);
  // A 4xx is final: one fetch per word, never a retry.
  EXPECT_EQ(transport.fetches(), 6);
}

TEST(ResilientProbeSiteTest, BreakerTripsOnFailureStorm) {
  ResilientProbeOptions options = SmallOptions(10);
  options.retry.max_attempts_per_query = 2;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_ms = 1000.0;
  options.max_breaker_waits = 1;
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  for (const std::string& word : plan.dictionary_words) {
    transport.FailNext(word, TransportError::kConnectionReset, 1000);
  }
  auto result = ResilientProbeSite(&transport, options);
  EXPECT_FALSE(result.ok());
  // The breaker opens after 3 consecutive failures; with one cooldown wait
  // allowed, the session ends long before 10 words x 2 attempts.
  EXPECT_LT(transport.fetches(), 20);
}

TEST(ResilientProbeSiteTest, HalfOpenFailureRetripsAndMetricCounts) {
  // Session-level half-open -> re-trip transition: the first word fails
  // enough to open the breaker (trip 1), the session politely waits out the
  // cooldown, the half-open trial fails too (immediate re-trip, trip 2),
  // and only the next trial succeeds. Everything after recovers.
  ResilientProbeOptions options = SmallOptions(4);
  options.retry.max_attempts_per_query = 6;
  options.breaker.failure_threshold = 2;
  // Cooldown far above any backoff delay, so re-entry always goes through
  // an explicit breaker rejection + cooldown wait, never a lucky backoff.
  options.breaker.open_duration_ms = 10000.0;
  options.max_breaker_waits = 5;
  MetricsRegistry registry;
  options.metrics = &registry;
  ProbePlan plan = MakeProbePlan(options.plan);
  ScriptedTransport transport;
  // Failure 1-2: trip while closed. Failure 3: the half-open trial.
  transport.FailNext(plan.dictionary_words[0], TransportError::kConnectionReset,
                     3);
  auto result = ResilientProbeSite(&transport, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.breaker_trips, 2);
  EXPECT_EQ(result->stats.breaker_rejections, 2);
  EXPECT_EQ(result->responses.size(), 4u);
  EXPECT_EQ(result->stats.abandoned_words, 0);
  // Every scripted reset was fetched and counted as a reset.
  EXPECT_EQ(result->stats.connection_resets, 3);
  EXPECT_EQ(result->stats.attempts, 7);
  // Two cooldowns were waited out in full.
  EXPECT_GE(result->stats.backoff_wait_ms, 2 * 10000.0);

  // The breaker_trips metric reflects the session and keeps accumulating
  // across sessions sharing the registry.
  EXPECT_EQ(registry.GetCounter("probe.breaker_trips")->value(), 2);
  EXPECT_EQ(registry.GetCounter("probe.breaker_rejections")->value(), 2);
  EXPECT_EQ(registry.GetCounter("probe.connection_resets")->value(), 3);
  ScriptedTransport transport2;
  transport2.FailNext(plan.dictionary_words[0],
                      TransportError::kConnectionReset, 3);
  ASSERT_TRUE(ResilientProbeSite(&transport2, options).ok());
  EXPECT_EQ(registry.GetCounter("probe.breaker_trips")->value(), 4);
}

TEST(ResilientProbeSiteTest, StatsAddAccumulates) {
  ProbeStats a;
  a.attempts = 3;
  a.timeouts = 1;
  a.backoff_wait_ms = 10.0;
  ProbeStats b;
  b.attempts = 2;
  b.timeouts = 2;
  b.backoff_wait_ms = 5.0;
  a.Add(b);
  EXPECT_EQ(a.attempts, 5);
  EXPECT_EQ(a.timeouts, 3);
  EXPECT_DOUBLE_EQ(a.backoff_wait_ms, 15.0);
  EXPECT_FALSE(a.ToString().empty());
}

TEST(ResilientProbeSiteTest, FaultedProbeIsDeterministicInSeed) {
  SiteConfig config;
  config.site_id = 3;
  config.seed = 21;
  DeepWebSite site(config);
  auto run = [&site]() {
    DirectTransport direct(&site);
    FaultInjectingTransport faulty(&direct, FaultOptions::Uniform(0.3, 77));
    ResilientProbeOptions options;
    options.plan.num_dictionary_words = 30;
    options.plan.num_nonsense_words = 3;
    return ResilientProbeSite(&faulty, options);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->responses.size(), b->responses.size());
  for (size_t i = 0; i < a->responses.size(); ++i) {
    EXPECT_EQ(a->responses[i].html, b->responses[i].html) << i;
    EXPECT_EQ(a->responses[i].query, b->responses[i].query) << i;
  }
  EXPECT_EQ(a->stats.attempts, b->stats.attempts);
  EXPECT_EQ(a->stats.retries, b->stats.retries);
  EXPECT_EQ(a->stats.abandoned_words, b->stats.abandoned_words);
  EXPECT_DOUBLE_EQ(a->stats.backoff_wait_ms, b->stats.backoff_wait_ms);
  EXPECT_EQ(a->stats.ToString(), b->stats.ToString());
}

TEST(ResilientProbeSiteTest, RetriesRecoverPagesLostToTransientFaults) {
  SiteConfig config;
  config.site_id = 4;
  config.seed = 33;
  DeepWebSite site(config);
  DirectTransport direct(&site);
  FaultOptions faults;
  faults.seed = 9;
  faults.timeout_rate = 0.3;
  FaultInjectingTransport faulty(&direct, faults);
  ResilientProbeOptions options;
  options.plan.num_dictionary_words = 40;
  options.plan.num_nonsense_words = 0;
  auto result = ResilientProbeSite(&faulty, options);
  ASSERT_TRUE(result.ok());
  // ~30% of first attempts time out; with 4 attempts per word nearly all
  // words should still come back.
  EXPECT_GE(result->responses.size(), 38u);
  EXPECT_GT(result->stats.retries, 0);
  EXPECT_GT(result->stats.timeouts, 0);
}

}  // namespace
}  // namespace thor::deepweb
