#include "thorbench/src/learn.h"

#include <utility>

#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/http_transport.h"
#include "src/deepweb/resilient_prober.h"
#include "thorbench/src/loadgen.h"

namespace thorbench {

namespace {

thor::net::HttpClientOptions ClientOptions(thor::MetricsRegistry* metrics) {
  thor::net::HttpClientOptions options;
  options.metrics = metrics;
  return options;
}

/// Benchmark name of one RunThor stage span.
std::string StageName(const std::string& stage) {
  if (stage == "phase1_clustering") return "learn.phase1";
  if (stage == "cluster_ranking") return "learn.rank";
  if (stage == "phase2_extraction") return "learn.phase2";
  return "learn.thor." + stage;
}

}  // namespace

thor::deepweb::ProbeOptions TrainPlan(uint64_t seed, int index) {
  thor::deepweb::ProbeOptions plan;
  plan.seed = seed * 1000003u + 7u + static_cast<uint64_t>(index);
  return plan;
}

SiteLearner::SiteLearner(uint16_t sim_port, thor::serve::TemplateStore* store,
                         thor::MetricsRegistry* metrics, SpanLog* spans)
    : sim_port_(sim_port),
      store_(store),
      metrics_(metrics),
      spans_(spans),
      client_(ClientOptions(metrics)) {}

LearnOutcome SiteLearner::Learn(int site_index, const std::string& name,
                                const thor::deepweb::ProbeOptions& plan,
                                uint64_t span_id) {
  LearnOutcome outcome;
  thor::deepweb::HttpTransport transport(&client_, "127.0.0.1", sim_port_,
                                         site_index);
  thor::deepweb::ResilientProbeOptions probe_options;
  probe_options.plan = plan;
  probe_options.metrics = metrics_;

  const double t0 = NowMs();
  auto probe = thor::deepweb::ResilientProbeSite(&transport, probe_options);
  const double t1 = NowMs();
  if (!probe.ok()) {
    outcome.error = "probe: " + probe.status().ToString();
    return outcome;
  }
  thor::deepweb::SiteSample sample;
  sample.site_id = site_index;
  sample.diagnostics.probe = probe->stats;
  for (const thor::deepweb::QueryResponse& response : probe->responses) {
    auto page = thor::deepweb::LabelPageChecked(response);
    if (page.ok()) sample.pages.push_back(std::move(*page));
  }
  const double t2 = NowMs();
  auto pages = thor::core::ToPages(sample);
  const double t3 = NowMs();
  thor::core::ThorOptions thor_options;
  thor_options.observability.metrics = metrics_;
  auto result = thor::core::RunThor(pages, thor_options);
  const double t4 = NowMs();
  if (!result.ok()) {
    outcome.error = "RunThor: " + result.status().ToString();
    return outcome;
  }
  auto registry = thor::core::TemplateRegistry::Learn(pages, *result);
  const double t5 = NowMs();
  thor::Status put = store_->Put(name, registry);
  const double t6 = NowMs();
  if (!put.ok()) {
    outcome.error = "Put: " + put.ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.latency_ms = t6 - t0;
  outcome.pr = thor::core::EvaluatePagelets(sample, *result);

  if (spans_ != nullptr) {
    const int root = spans_->Add("learn.site", span_id, t0, t6);
    spans_->Add("probe.site", span_id, t0, t1, root);
    spans_->Add("parse.site", span_id, t1, t2, root);
    spans_->Add("core.to_pages", span_id, t2, t3, root);
    const int thor_span = spans_->Add("learn.thor", span_id, t3, t4, root);
    spans_->Add("learn.registry", span_id, t4, t5, root);
    spans_->Add("store.put", span_id, t5, t6, root);
    // RunThor's own stage spans, re-based onto this clock under learn.thor.
    const auto& stages = result->report.spans;
    double origin = 0.0;
    for (const thor::TraceSpan& stage : stages) {
      if (stage.parent == -1) {
        origin = stage.start_ms;
        break;
      }
    }
    for (const thor::TraceSpan& stage : stages) {
      if (stage.depth != 1) continue;  // direct children of run_thor only
      const double start = t3 + (stage.start_ms - origin);
      spans_->Add(StageName(stage.name), span_id, start,
                  start + stage.duration_ms, thor_span);
    }
  }
  return outcome;
}

thor::core::PrecisionRecall ReferencePrecisionRecall(
    const thor::deepweb::DeepWebSite& site,
    const thor::deepweb::ProbeOptions& plan) {
  auto sample = thor::deepweb::BuildSiteSample(site, plan);
  auto pages = thor::core::ToPages(sample);
  auto result = thor::core::RunThor(pages, thor::core::ThorOptions{});
  if (!result.ok()) return {};
  return thor::core::EvaluatePagelets(sample, *result);
}

}  // namespace thorbench
