#include "thorbench/src/spans.h"

#include <algorithm>

#include "src/util/trace.h"
#include "thorbench/src/stats.h"

namespace thorbench {

int SpanLog::Add(std::string name, uint64_t id, double start_ms,
                 double end_ms, int parent) {
  spans_.push_back({std::move(name), id, start_ms, end_ms, parent});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::vector<std::vector<Interval>> ChildIntervals(
    const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].push_back(
          {span.start_ms, span.end_ms});
    }
  }
  return children;
}

}  // namespace

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  const auto children = ChildIntervals(spans_);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SpanTotals& t = totals[span.name];
    const double duration = std::max(0.0, span.end_ms - span.start_ms);
    ++t.count;
    t.total_ms += duration;
    t.self_ms += SelfMs({span.start_ms, span.end_ms}, children[i]);
    t.durations_ms.push_back(duration);
  }
  return totals;
}

double SpanLog::Coverage(const std::string& root_name) const {
  const auto children = ChildIntervals(spans_);
  double total = 0.0;
  double covered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != -1 || span.name != root_name) continue;
    const Interval interval{span.start_ms, span.end_ms};
    total += std::max(0.0, span.end_ms - span.start_ms);
    covered += CoveredMs(interval, children[i]);
  }
  return total > 0.0 ? covered / total : 0.0;
}

std::string SpanLog::ChromeJson(size_t max_spans) const {
  std::vector<thor::TraceSpan> out;
  const size_t n = std::min(max_spans, spans_.size());
  out.reserve(n);
  const double origin = n > 0 ? spans_[0].start_ms : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    thor::TraceSpan trace;
    trace.name = span.name + " #" + std::to_string(span.id);
    trace.start_ms = span.start_ms - origin;
    trace.duration_ms = std::max(0.0, span.end_ms - span.start_ms);
    trace.parent = span.parent;
    out.push_back(std::move(trace));
  }
  return thor::ChromeTraceJson(out);
}

std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

}  // namespace thorbench
