#include "src/deepweb/prober.h"

#include "src/text/word_lists.h"

namespace thor::deepweb {

ProbePlan MakeProbePlan(const ProbeOptions& options) {
  Rng rng(options.seed);
  ProbePlan plan;
  plan.dictionary_words =
      text::SampleDictionaryWords(&rng, options.num_dictionary_words);
  plan.nonsense_words.reserve(
      static_cast<size_t>(options.num_nonsense_words));
  for (int i = 0; i < options.num_nonsense_words; ++i) {
    plan.nonsense_words.push_back(text::MakeNonsenseWord(&rng));
  }
  return plan;
}

}  // namespace thor::deepweb
