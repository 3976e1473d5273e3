#ifndef THOR_DEEPWEB_PROBER_H_
#define THOR_DEEPWEB_PROBER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace thor::deepweb {

/// Stage-1 probing parameters (paper Section 2 / 4: 100 dictionary words
/// plus 10 nonsense words per site).
struct ProbeOptions {
  int num_dictionary_words = 100;
  int num_nonsense_words = 10;
  uint64_t seed = 1234;
};

/// The probe-word mix for one site.
struct ProbePlan {
  std::vector<std::string> dictionary_words;
  std::vector<std::string> nonsense_words;
};

/// Draws a probe plan. Deterministic in the seed; independent of the site.
/// ResilientProbeSite (resilient_prober.h) fetches it.
ProbePlan MakeProbePlan(const ProbeOptions& options);

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_PROBER_H_
