#include "src/deepweb/transport.h"

#include <algorithm>

namespace thor::deepweb {

namespace {

uint64_t MixFaultSeed(uint64_t seed, std::string_view keyword, int attempt) {
  uint64_t state = seed ^ HashKeyword(keyword);
  state += 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt + 1);
  return SplitMix64(&state);
}

/// Bytes used to overwrite garbled positions. Heavy on markup
/// metacharacters so garbling stresses the tokenizer, not just content.
constexpr char kGarbleBytes[] = {'<', '>', '"', '\'', '&', '=', '/',
                                 '\0', '\xff', 'x', ' '};

}  // namespace

const char* TransportErrorName(TransportError error) {
  switch (error) {
    case TransportError::kNone:
      return "none";
    case TransportError::kTimeout:
      return "timeout";
    case TransportError::kConnectionReset:
      return "connection-reset";
    case TransportError::kServerError:
      return "server-error";
    case TransportError::kRateLimited:
      return "rate-limited";
    case TransportError::kPermanent:
      return "permanent";
  }
  return "unknown";
}

FetchResult DirectTransport::Fetch(std::string_view keyword) {
  FetchResult result;
  result.response = site_->Query(keyword);
  return result;
}

FaultOptions FaultOptions::Uniform(double overall_rate, uint64_t seed) {
  double rate = std::clamp(overall_rate, 0.0, 1.0);
  FaultOptions options;
  options.seed = seed;
  options.timeout_rate = 0.20 * rate;
  options.reset_rate = 0.10 * rate;
  options.server_error_rate = 0.25 * rate;
  options.rate_limit_rate = 0.15 * rate;
  options.truncate_rate = 0.20 * rate;
  options.garble_rate = 0.10 * rate;
  options.slow_rate = 0.05 * rate;
  return options;
}

FaultInjectingTransport::FaultInjectingTransport(SiteTransport* wrapped,
                                                 const FaultOptions& options,
                                                 Clock* clock)
    : wrapped_(wrapped), options_(options), clock_(clock) {}

FetchResult FaultInjectingTransport::Fetch(std::string_view keyword) {
  int attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = attempts_[std::string(keyword)]++;
  }
  Rng rng(MixFaultSeed(options_.seed, keyword, attempt));

  FetchResult result;
  double draw = rng.UniformDouble();
  double band = options_.timeout_rate;
  if (draw < band) {
    result.error = TransportError::kTimeout;
    result.http_status = 0;
    result.latency_ms = options_.timeout_ms;
  } else if (draw < (band += options_.reset_rate)) {
    result.error = TransportError::kConnectionReset;
    result.http_status = 0;
    // Resets fail part-way through the service time.
    result.latency_ms = options_.base_latency_ms * rng.UniformDouble();
  } else if (draw < (band += options_.server_error_rate)) {
    result.error = TransportError::kServerError;
    result.http_status = 500 + static_cast<int>(rng.UniformInt(4));
    result.latency_ms = options_.base_latency_ms;
  } else if (draw < (band += options_.rate_limit_rate)) {
    result.error = TransportError::kRateLimited;
    result.http_status = 429;
    result.retry_after_ms =
        options_.retry_after_ms * (1.0 + static_cast<double>(rng.UniformInt(3)));
    result.latency_ms = options_.base_latency_ms;
  } else if (draw < (band += options_.permanent_error_rate)) {
    result.error = TransportError::kPermanent;
    result.http_status = 404;
    result.latency_ms = options_.base_latency_ms;
  } else {
    result = wrapped_->Fetch(keyword);
    result.latency_ms = rng.Bernoulli(options_.slow_rate)
                            ? options_.slow_latency_ms
                            : options_.base_latency_ms;
    std::string& html = result.response.html;
    if (!html.empty() && rng.Bernoulli(options_.truncate_rate)) {
      // Keep a nonempty prefix; the cut lands anywhere, including mid-tag,
      // mid-attribute-value, or mid-entity. Connections that die tend to
      // die early: a good fraction never get past the first packet (a
      // near-empty residue downstream validation must reject), and the
      // rest cut with a head-biased (squared-uniform) draw.
      size_t keep;
      if (rng.Bernoulli(0.4)) {
        keep = 1 + rng.UniformInt(32);
      } else {
        double u = rng.UniformDouble();
        keep =
            1 + static_cast<size_t>(u * u * static_cast<double>(html.size()));
      }
      html.resize(std::min(keep, html.size()));
      result.truncated_body = true;
    }
    if (!html.empty() && rng.Bernoulli(options_.garble_rate)) {
      uint64_t damaged = 1 + rng.UniformInt(8);
      for (uint64_t i = 0; i < damaged; ++i) {
        size_t pos = rng.UniformInt(html.size());
        html[pos] = kGarbleBytes[rng.UniformInt(std::size(kGarbleBytes))];
      }
    }
  }
  if (clock_ != nullptr) clock_->SleepMs(result.latency_ms);
  return result;
}

}  // namespace thor::deepweb
