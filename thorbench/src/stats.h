#ifndef THORBENCH_STATS_H_
#define THORBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace thorbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty. The
/// result is always one of the samples, so a reported p99 is a latency some
/// request really had.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: n - ceil(p/100 * n).
int64_t SamplesBeyond(int64_t n, double p);

/// The highest percentile of `candidates` (tried in order) that leaves at
/// least `min_beyond` samples beyond it; 0 when none does.
double TailPercentile(int64_t n, const std::vector<double>& candidates = {99.0,
                                                                  95.0, 90.0,
                                                                  75.0, 50.0},
                      int64_t min_beyond = 10);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// Percentile robust to a single stall: split `values` (in arrival order)
/// into consecutive windows of `window` samples, take each window's `p`-th
/// percentile, and return the median of those. Fewer than two windows:
/// the plain percentile.
double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p);

/// Outcome of one rung of the offered-rate ladder.
struct Rung {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  ///< responses received / rung duration
  double p99_ms = 0.0;
  int64_t samples = 0;
  int64_t failures = 0;
  bool backlog_growing = false;
  /// False when the generator fell behind its own schedule, so the rung
  /// measured the generator rather than the server.
  bool valid = true;
};

/// Whether a rung meets the serving target: valid, enough samples for a
/// supported p99, zero failures, p99 within the limit, and no growing
/// backlog.
bool RungPasses(const Rung& rung, double p99_limit_ms);

/// Capacity on a ladder walked upward: the last passing rung before the
/// first failing one, in the order given (rates ascending). Returns the
/// index into `rungs`, or -1 when the first rung already fails.
int CapacityRung(const std::vector<Rung>& rungs, double p99_limit_ms);

/// Outstanding-request counts sampled at a steady cadence over a rung.
/// The backlog is growing when the mean of the last quarter exceeds the
/// mean of the second quarter (the first quarter is start-up transient) by
/// more than `slack` requests.
bool BacklogGrowing(const std::vector<double>& outstanding, double slack);

/// A closed time interval [start_ms, end_ms] on one clock.
struct Interval {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Length of the union of `children` clipped to `parent`.
double CoveredMs(const Interval& parent, std::vector<Interval> children);

/// Self time: parent duration minus the part its children cover (never
/// negative).
double SelfMs(const Interval& parent, const std::vector<Interval>& children);

/// Maps the server's opaque connection tags to client connection indices
/// from a warm-up in which client connection c sent exactly one request
/// alone: `tags_seen[c]` lists every tag observed while c's request was
/// the only one in flight. Fails (returns false, `error` set) unless each
/// window saw exactly one tag and no tag appears in two windows.
bool MapTags(const std::vector<std::vector<uint64_t>>& tags_seen,
             std::map<uint64_t, int>* tag_to_conn, std::string* error);

}  // namespace thorbench

#endif  // THORBENCH_STATS_H_
