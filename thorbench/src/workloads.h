#ifndef THORBENCH_WORKLOADS_H_
#define THORBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace thorbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::string workload;  ///< serve_hit | learn_cold | serve_drift
  uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  std::string work_dir;    ///< scratch space for stores (removed after)
  std::string trace_path;  ///< Chrome trace JSON output (traced runs)
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// False when the load generator fell behind its schedule on a phase
  /// whose numbers are reported: the run measured the generator.
  bool valid = true;
  std::string invalid_reason;
  /// The gated metric set, in BENCHMARK.json order, on every workload.
  std::vector<Metric> end_to_end;
  /// The workload's metrics under their own names (capacity_rps, p99_ms,
  /// recover_p50_s, learn_sites_per_s, fail_ratio, ...).
  std::vector<Metric> named;
  /// Traced runs: the per-layer set, in BENCHMARK.json order.
  std::vector<Metric> layers;
  /// Traced runs: per-layer metrics that only some workloads produce.
  std::vector<Metric> layers_extra;
  /// Human-readable detail lines (ladder, self times, coverage, checks).
  std::vector<std::string> notes;
};

bool IsWorkload(const std::string& name);
RunReport RunWorkload(const RunOptions& options);

}  // namespace thorbench

#endif  // THORBENCH_WORKLOADS_H_
