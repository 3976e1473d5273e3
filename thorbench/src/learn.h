#ifndef THORBENCH_LEARN_H_
#define THORBENCH_LEARN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/deepweb/site.h"
#include "src/net/http_client.h"
#include "src/serve/template_store.h"
#include "src/util/metrics.h"
#include "thorbench/src/spans.h"

namespace thorbench {

/// Probe plan of site `index` of a run: 100 dictionary + 10 nonsense
/// words (the paper's 110), drawn from a per-site seed.
thor::deepweb::ProbeOptions TrainPlan(uint64_t seed, int index);

/// What learning one site cost and produced.
struct LearnOutcome {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;  ///< probe start to store commit
  thor::core::PrecisionRecall pr;
};

/// \brief Takes one site from an empty store slot to a committed template
/// generation through the program's public learn path: ResilientProbeSite
/// over HttpTransport against the simulator's HTTP front door,
/// LabelPageChecked per response, RunThor, TemplateRegistry::Learn, and
/// TemplateStore::Put.
///
/// With a span log, each step is recorded as a child span of one
/// "learn.site" root (ids = `span_id`), and RunThor's own stage spans (its
/// ThorResult report) are nested under "learn.thor".
class SiteLearner {
 public:
  SiteLearner(uint16_t sim_port, thor::serve::TemplateStore* store,
              thor::MetricsRegistry* metrics, SpanLog* spans);

  /// Learns fleet member `site_index` under the store name `name`.
  LearnOutcome Learn(int site_index, const std::string& name,
                     const thor::deepweb::ProbeOptions& plan,
                     uint64_t span_id);

 private:
  uint16_t sim_port_;
  thor::serve::TemplateStore* store_;
  thor::MetricsRegistry* metrics_;
  SpanLog* spans_;
  thor::net::HttpClient client_;
};

/// Precision/recall of the in-process reference: the same plan probed
/// straight from the simulator (no sockets), then RunThor and
/// EvaluatePagelets. The HTTP-learned site must score identically.
thor::core::PrecisionRecall ReferencePrecisionRecall(
    const thor::deepweb::DeepWebSite& site,
    const thor::deepweb::ProbeOptions& plan);

}  // namespace thorbench

#endif  // THORBENCH_LEARN_H_
