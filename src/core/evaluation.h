#ifndef THOR_CORE_EVALUATION_H_
#define THOR_CORE_EVALUATION_H_

#include <vector>

#include "src/core/thor.h"
#include "src/deepweb/corpus.h"

namespace thor::core {

/// Matching policy between an extracted pagelet subtree and the ground
/// truth node.
struct EvalOptions {
  /// Accept near misses: the extracted node is an ancestor or descendant of
  /// the truth node and covers a similar amount of content.
  bool relaxed = true;
  /// Maximum relative content-length difference for a relaxed match.
  double content_tolerance = 0.25;
};

/// True when `extracted` identifies the same region as `truth` under the
/// given policy.
bool PageletMatches(const html::ArenaTree& tree, html::NodeId extracted,
                    html::NodeId truth, const EvalOptions& options = {});

/// Micro-averaged precision/recall counters, accumulable across sites.
struct PrecisionRecall {
  int correct = 0;    ///< QA-Pagelets correctly identified
  int extracted = 0;  ///< subtrees identified as QA-Pagelets
  int truth = 0;      ///< QA-Pagelets in the ground truth

  double Precision() const {
    return extracted > 0 ? static_cast<double>(correct) / extracted : 0.0;
  }
  double Recall() const {
    return truth > 0 ? static_cast<double>(correct) / truth : 0.0;
  }
  void Add(const PrecisionRecall& other) {
    correct += other.correct;
    extracted += other.extracted;
    truth += other.truth;
  }
};

/// Copies a labeled sample into pipeline input pages (trees are copied,
/// not re-parsed, so node ids stay aligned with the ground truth).
std::vector<Page> ToPages(const deepweb::SiteSample& sample);

/// Scores a full THOR run against the sample's ground truth.
PrecisionRecall EvaluatePagelets(const deepweb::SiteSample& sample,
                                 const ThorResult& result,
                                 const EvalOptions& options = {});

/// Scores a Phase-II-only run: `page_indices[i]` maps the i-th input tree
/// back to a page of `sample` (the paper's Figure 8/9 setup, where Phase II
/// is fed only pre-labeled pagelet-bearing pages).
PrecisionRecall EvaluatePhase2(const deepweb::SiteSample& sample,
                               const std::vector<int>& page_indices,
                               const std::vector<ExtractedPagelet>& pagelets,
                               const EvalOptions& options = {});

/// Scores Stage-3 object partitioning on one page: fraction of ground-truth
/// object roots recovered and precision of emitted spans (exact root
/// match).
PrecisionRecall EvaluateObjects(const deepweb::LabeledPage& page,
                                const std::vector<ObjectSpan>& objects);

}  // namespace thor::core

#endif  // THOR_CORE_EVALUATION_H_
