#ifndef THOR_DEEPWEB_ADAPTIVE_PROBER_H_
#define THOR_DEEPWEB_ADAPTIVE_PROBER_H_

#include <cstdint>
#include <vector>

#include "src/deepweb/site.h"

namespace thor::deepweb {

/// Options for coverage-driven probing.
struct AdaptiveProbeOptions {
  /// Dictionary queries issued per round.
  int batch_size = 10;
  /// Hard budget on dictionary queries.
  int max_queries = 200;
  /// Rounds without a new structural class before stopping.
  int patience = 2;
  /// Pages required per discovered class before stopping.
  int min_pages_per_class = 5;
  /// Nonsense probes issued up front (the no-match anchor).
  int nonsense_words = 5;
  /// Two pages belong to the same structural class when the cosine of
  /// their normalized tag signatures reaches this.
  double same_class_similarity = 0.9;
  uint64_t seed = 1234;
};

/// Result of an adaptive probing session.
struct AdaptiveProbeResult {
  std::vector<QueryResponse> responses;
  /// Dictionary queries actually issued (<= max_queries).
  int queries_issued = 0;
  int rounds = 0;
  /// Structural classes detected (novelty representatives).
  int classes_detected = 0;
};

/// \brief Stage-1 extension: probe until structural coverage saturates.
///
/// Bench-only (bench_probe_budget): the pipeline probes through
/// ResilientProbeSite. The paper's prober issues a fixed 100+10 queries
/// per site. This variant implements the stated goal directly — "generate
/// a diverse set of pages which capture all possible classes of
/// structurally different answer pages" — by watching the tag-signature
/// novelty of the collected pages and stopping when no new page class has
/// appeared for `patience` rounds and every class is sampled at least
/// `min_pages_per_class` times. Simple sites finish in a few dozen
/// queries; structurally rich sites keep probing up to the budget.
AdaptiveProbeResult AdaptiveProbeSite(const DeepWebSite& site,
                                      const AdaptiveProbeOptions& options);

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_ADAPTIVE_PROBER_H_
