#include "src/core/evaluation.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace thor::core {

bool PageletMatches(const html::ArenaTree& tree, html::NodeId extracted,
                    html::NodeId truth, const EvalOptions& options) {
  if (extracted == html::kInvalidNode || truth == html::kInvalidNode) {
    return false;
  }
  if (extracted == truth) return true;
  if (!options.relaxed) return false;
  bool related = tree.IsAncestorOrSelf(extracted, truth) ||
                 tree.IsAncestorOrSelf(truth, extracted);
  if (!related) return false;
  int a = tree.node(extracted).content_length;
  int b = tree.node(truth).content_length;
  int hi = std::max(a, b);
  if (hi == 0) return a == b;
  double delta = static_cast<double>(std::abs(a - b)) / hi;
  return delta <= options.content_tolerance;
}

std::vector<Page> ToPages(const deepweb::SiteSample& sample) {
  std::vector<Page> pages;
  pages.reserve(sample.pages.size());
  for (const deepweb::LabeledPage& lp : sample.pages) {
    pages.push_back(Page{lp.url, lp.html, lp.tree, lp.size_bytes,
                         lp.from_nonsense_probe});
  }
  return pages;
}

PrecisionRecall EvaluatePagelets(const deepweb::SiteSample& sample,
                                 const ThorResult& result,
                                 const EvalOptions& options) {
  PrecisionRecall pr;
  for (const deepweb::LabeledPage& page : sample.pages) {
    if (page.pagelet_node != html::kInvalidNode) ++pr.truth;
  }
  // A page may appear at most once in result.pages (one pagelet per page in
  // the default configuration); guard against double counting regardless.
  std::unordered_set<int> credited;
  for (const ThorPageResult& tpr : result.pages) {
    if (tpr.pagelet == html::kInvalidNode) continue;
    ++pr.extracted;
    const deepweb::LabeledPage& page =
        sample.pages[static_cast<size_t>(tpr.page_index)];
    if (PageletMatches(page.tree, tpr.pagelet, page.pagelet_node, options) &&
        credited.insert(tpr.page_index).second) {
      ++pr.correct;
    }
  }
  return pr;
}

PrecisionRecall EvaluatePhase2(const deepweb::SiteSample& sample,
                               const std::vector<int>& page_indices,
                               const std::vector<ExtractedPagelet>& pagelets,
                               const EvalOptions& options) {
  PrecisionRecall pr;
  for (int index : page_indices) {
    const deepweb::LabeledPage& page =
        sample.pages[static_cast<size_t>(index)];
    if (page.pagelet_node != html::kInvalidNode) ++pr.truth;
  }
  std::unordered_set<int> credited;
  for (const ExtractedPagelet& extracted : pagelets) {
    if (extracted.node == html::kInvalidNode) continue;
    ++pr.extracted;
    int sample_index =
        page_indices[static_cast<size_t>(extracted.page_index)];
    const deepweb::LabeledPage& page =
        sample.pages[static_cast<size_t>(sample_index)];
    if (PageletMatches(page.tree, extracted.node, page.pagelet_node,
                       options) &&
        credited.insert(sample_index).second) {
      ++pr.correct;
    }
  }
  return pr;
}

PrecisionRecall EvaluateObjects(const deepweb::LabeledPage& page,
                                const std::vector<ObjectSpan>& objects) {
  PrecisionRecall pr;
  pr.truth = static_cast<int>(page.object_nodes.size());
  std::unordered_set<html::NodeId> truth_set(page.object_nodes.begin(),
                                             page.object_nodes.end());
  std::unordered_set<html::NodeId> credited;
  for (const ObjectSpan& span : objects) {
    ++pr.extracted;
    html::NodeId root = span.root();
    if (truth_set.count(root) > 0 && credited.insert(root).second) {
      ++pr.correct;
    }
  }
  return pr;
}

}  // namespace thor::core
