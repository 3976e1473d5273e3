#include "src/deepweb/adaptive_prober.h"

#include <utility>

#include "src/core/signature_builder.h"
#include "src/html/parser.h"
#include "src/ir/similarity.h"
#include "src/text/word_lists.h"

namespace thor::deepweb {

namespace {

ir::SparseVector PageSignature(const std::string& html) {
  ir::SparseVector signature =
      core::TagCountVector(html::ParseHtml(html));
  signature.Normalize();
  return signature;
}

}  // namespace

AdaptiveProbeResult AdaptiveProbeSite(const DeepWebSite& site,
                                      const AdaptiveProbeOptions& options) {
  AdaptiveProbeResult result;
  Rng rng(options.seed);

  // Structural-class representatives and their member counts.
  std::vector<ir::SparseVector> representatives;
  std::vector<int> class_sizes;
  auto absorb = [&](const QueryResponse& response) {
    ir::SparseVector signature = PageSignature(response.html);
    int best = -1;
    double best_similarity = options.same_class_similarity;
    for (size_t r = 0; r < representatives.size(); ++r) {
      double similarity =
          ir::CosineNormalized(signature, representatives[r]);
      if (similarity >= best_similarity) {
        best_similarity = similarity;
        best = static_cast<int>(r);
      }
    }
    if (best < 0) {
      representatives.push_back(std::move(signature));
      class_sizes.push_back(1);
      return true;  // novel class
    }
    ++class_sizes[static_cast<size_t>(best)];
    return false;
  };

  // Nonsense anchors first: they guarantee the no-match class is sampled.
  for (int i = 0; i < options.nonsense_words; ++i) {
    QueryResponse response = site.Query(text::MakeNonsenseWord(&rng));
    response.from_nonsense_probe = true;
    absorb(response);
    result.responses.push_back(std::move(response));
  }

  int rounds_without_novelty = 0;
  while (result.queries_issued < options.max_queries) {
    ++result.rounds;
    bool saw_novelty = false;
    for (int q = 0;
         q < options.batch_size && result.queries_issued < options.max_queries;
         ++q) {
      QueryResponse response = site.Query(text::RandomWord(&rng));
      ++result.queries_issued;
      saw_novelty |= absorb(response);
      result.responses.push_back(std::move(response));
    }
    rounds_without_novelty = saw_novelty ? 0 : rounds_without_novelty + 1;
    if (rounds_without_novelty >= options.patience) {
      // Only major classes gate the stop: a rare anomaly class (a 2%
      // error template) may never reach the minimum and must not force
      // the prober to burn the whole budget.
      int total = 0;
      for (int size : class_sizes) total += size;
      bool all_major_classes_sampled = true;
      for (int size : class_sizes) {
        bool major = size * 20 >= total;  // >= 5% of pages so far
        if (major && size < options.min_pages_per_class) {
          all_major_classes_sampled = false;
          break;
        }
      }
      if (all_major_classes_sampled) break;
    }
  }
  result.classes_detected = static_cast<int>(representatives.size());
  return result;
}

}  // namespace thor::deepweb
