// thorbench: the repository benchmark. One command runs one named workload
// against the real public entry points, checks every output, and prints
// the metrics by name and unit; the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}.
//
//   thorbench --workload serve_hit|learn_cold|serve_drift --seed N
//             --seconds S --trace 0|1 [--commit C] [--work-dir D]
//
// --trace 0 prints the end-to-end metric set. --trace 1 runs the workload
// twice with the same seed, untraced and then traced, prints the per-layer
// metric set of the traced run, and reports the tracing overhead as the
// traced end-to-end numbers minus the untraced ones.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/net/socket.h"
#include "src/util/json.h"
#include "thorbench/src/workloads.h"

namespace thorbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: thorbench --workload serve_hit|learn_cold|serve_drift "
               "--seed N --seconds S --trace 0|1 [--commit C] "
               "[--work-dir D]\n");
  return 2;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintReport(const char* label, const RunReport& report) {
  std::printf("== %s ==\n", label);
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  PrintMetrics("workload metrics:", report.named);
  PrintMetrics("end-to-end metrics:", report.end_to_end);
  if (!report.layers.empty()) {
    PrintMetrics("per-layer metrics:", report.layers);
    PrintMetrics("per-layer metrics of some workloads only:",
                 report.layers_extra);
  }
  std::printf("attempted %lld, failed %lld%s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.valid ? "" : (", INVALID: " + report.invalid_reason).c_str());
}

/// Every value with all its digits (%.17g round-trips a double).
std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(bool correct, const RunReport& report,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           Number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  RunOptions options;
  int trace = -1;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      options.workload = value("--workload");
    } else if (!std::strcmp(argv[i], "--seed")) {
      options.seed = std::strtoull(value("--seed"), nullptr, 10);
      have_seed = true;
    } else if (!std::strcmp(argv[i], "--seconds")) {
      options.seconds = std::atof(value("--seconds"));
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace = std::atoi(value("--trace"));
    } else if (!std::strcmp(argv[i], "--commit")) {
      commit = value("--commit");
    } else if (!std::strcmp(argv[i], "--work-dir")) {
      options.work_dir = value("--work-dir");
    } else {
      return Usage();
    }
  }
  if (!IsWorkload(options.workload) || !have_seed || options.seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  thor::JsonWriter stamp;
  stamp.BeginObject();
  stamp.Key("workload").String(options.workload);
  stamp.Key("seed").Int(static_cast<long long>(options.seed));
  stamp.Key("seconds").Double(options.seconds);
  stamp.Key("trace").Int(trace);
  stamp.Key("nproc").Int(nproc);
  stamp.Key("compiler").String(Compiler());
  stamp.Key("optimize").Bool(kOptimized);
  stamp.Key("commit").String(commit);
  stamp.EndObject();
  std::printf("stamp %s\n", stamp.str().c_str());
  if (!kOptimized) {
    std::fprintf(stderr,
                 "refusing to report numbers from an unoptimised build "
                 "(needs __OPTIMIZE__ and NDEBUG)\n");
    return 2;
  }

  if (options.work_dir.empty()) {
    options.work_dir = "thorbench-work-" + std::to_string(::getpid());
  }
  std::filesystem::create_directories(options.work_dir);
  thor::net::IgnoreSigPipe();

  options.traced = false;
  RunReport untraced = RunWorkload(options);
  PrintReport(trace == 1 ? "untraced run" : "run", untraced);
  bool correct = untraced.failed == 0;
  bool valid = untraced.valid;
  const RunReport* result = &untraced;
  RunReport traced;
  if (trace == 1) {
    options.traced = true;
    options.trace_path = (std::filesystem::path(options.work_dir) /
                          (options.workload + "-" +
                           std::to_string(options.seed) + ".trace.json"))
                             .string();
    traced = RunWorkload(options);
    PrintReport("traced run", traced);
    std::printf("tracing overhead (traced - untraced):\n");
    for (size_t i = 0; i < traced.end_to_end.size() &&
                       i < untraced.end_to_end.size();
         ++i) {
      const Metric& t = traced.end_to_end[i];
      const Metric& u = untraced.end_to_end[i];
      std::printf("  %-34s %+16.6f %s (%+.2f%%)\n", t.name.c_str(),
                  t.value - u.value, t.unit.c_str(),
                  u.value != 0.0 ? 100.0 * (t.value - u.value) / u.value
                                 : 0.0);
    }
    correct = correct && traced.failed == 0;
    valid = valid && traced.valid;
    result = &traced;
  }
  if (!valid) {
    std::fprintf(stderr, "run invalid: %s\n",
                 (untraced.valid ? traced : untraced).invalid_reason.c_str());
    return 3;
  }
  RunReport total = *result;
  if (trace == 1) {
    total.attempted += untraced.attempted;
    total.failed += untraced.failed;
  }
  std::printf("%s\n",
              ResultJson(correct, total,
                         trace == 1 ? traced.layers : untraced.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace thorbench

int main(int argc, char** argv) { return thorbench::Main(argc, argv); }
