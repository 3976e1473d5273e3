#ifndef THORBENCH_SPANS_H_
#define THORBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace thorbench {

/// One recorded span. Times are steady-clock milliseconds; `id` groups the
/// spans of one request (or one learned site); `parent` indexes the
/// enclosing span in the log, -1 for roots.
struct Span {
  std::string name;
  uint64_t id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
};

/// Aggregate of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;  ///< summed durations
  double self_ms = 0.0;   ///< summed durations minus child coverage
  std::vector<double> durations_ms;
};

/// \brief In-memory span recorder for the traced run.
///
/// Spans are kept in memory and written out when the run ends. The log is
/// filled from one thread at a time: serving spans are assembled after the
/// run from timestamps the hooks captured, learn spans are recorded by the
/// serial learn loop.
class SpanLog {
 public:
  /// Appends a span and returns its index (the handle children use as
  /// `parent`).
  int Add(std::string name, uint64_t id, double start_ms, double end_ms,
          int parent = -1);

  /// Per-name totals, self time computed against each span's direct
  /// children.
  std::map<std::string, SpanTotals> Totals() const;

  /// Share of all root-span time that named child spans cover (1 - root
  /// self time / root time), over roots called `root_name`.
  double Coverage(const std::string& root_name) const;

  /// Chrome trace-event JSON of the first `max_spans` spans, rendered by
  /// util/trace's ChromeTraceJson. Each name carries its request id so the
  /// spans of one request group together in the viewer.
  std::string ChromeJson(size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

/// Layer of a span: its name up to the first '.', so "net.ingress" and
/// "net.egress" both belong to "net".
std::string LayerOf(const std::string& span_name);

}  // namespace thorbench

#endif  // THORBENCH_SPANS_H_
