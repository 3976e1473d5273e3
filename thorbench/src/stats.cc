#include "thorbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace thorbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

double TailPercentile(int64_t n, const std::vector<double>& candidates,
                      int64_t min_beyond) {
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p) {
  const size_t windows = window > 0 ? values.size() / window : 0;
  if (windows < 2) return Percentile(values, p);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(values.begin() + static_cast<long>(w * window),
                            values.begin() + static_cast<long>((w + 1) * window)),
        p));
  }
  return Percentile(std::move(per_window), 50.0);
}

bool RungPasses(const Rung& rung, double p99_limit_ms) {
  return rung.valid && SamplesBeyond(rung.samples, 99.0) >= 10 &&
         rung.failures == 0 && rung.p99_ms <= p99_limit_ms &&
         !rung.backlog_growing;
}

int CapacityRung(const std::vector<Rung>& rungs, double p99_limit_ms) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (!RungPasses(rungs[i], p99_limit_ms)) break;
    best = static_cast<int>(i);
  }
  return best;
}

bool BacklogGrowing(const std::vector<double>& outstanding, double slack) {
  const size_t n = outstanding.size();
  if (n < 4) return false;
  const size_t quarter = n / 4;
  std::vector<double> second(outstanding.begin() + static_cast<long>(quarter),
                             outstanding.begin() +
                                 static_cast<long>(2 * quarter));
  std::vector<double> last(outstanding.end() - static_cast<long>(quarter),
                           outstanding.end());
  return Mean(last) - Mean(second) > slack;
}

double CoveredMs(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start_ms = std::max(child.start_ms, parent.start_ms);
    child.end_ms = std::min(child.end_ms, parent.end_ms);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ms < b.start_ms;
            });
  double covered = 0.0;
  double cursor = parent.start_ms;
  for (const Interval& child : children) {
    if (child.end_ms <= child.start_ms) continue;
    const double from = std::max(cursor, child.start_ms);
    if (child.end_ms > from) {
      covered += child.end_ms - from;
      cursor = child.end_ms;
    }
  }
  return covered;
}

double SelfMs(const Interval& parent, const std::vector<Interval>& children) {
  const double duration = parent.end_ms - parent.start_ms;
  return std::max(0.0, duration - CoveredMs(parent, children));
}

bool MapTags(const std::vector<std::vector<uint64_t>>& tags_seen,
             std::map<uint64_t, int>* tag_to_conn, std::string* error) {
  tag_to_conn->clear();
  for (size_t c = 0; c < tags_seen.size(); ++c) {
    std::set<uint64_t> distinct(tags_seen[c].begin(), tags_seen[c].end());
    if (distinct.size() != 1) {
      *error = "connection " + std::to_string(c) + " saw " +
               std::to_string(distinct.size()) +
               " server tags during its solo request";
      return false;
    }
    const uint64_t tag = *distinct.begin();
    if (!tag_to_conn->emplace(tag, static_cast<int>(c)).second) {
      *error = "server tag " + std::to_string(tag) +
               " answered two client connections";
      return false;
    }
  }
  return true;
}

}  // namespace thorbench
