#ifndef THOR_CORE_COMMON_SUBTREES_H_
#define THOR_CORE_COMMON_SUBTREES_H_

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/html/tree_read.h"
#include "src/util/metrics.h"

namespace thor::core {

/// A subtree of one page in a page cluster.
struct SubtreeRef {
  int page_index = 0;
  html::NodeId node = html::kInvalidNode;
};

/// The paper's content-neutral, structure-sensitive shape quadruple
/// <P_j, F_j, D_j, N_j> (Section 3.2.1 Step 1).
struct ShapeQuad {
  /// Root-to-subtree path, one symbol per tag (q = 1 simplification).
  std::string path_symbols;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
};

/// Writes the quadruple for the subtree of `tree` rooted at `node` into
/// `quad`, reusing its path string's capacity.
template <html::ReadableTree Tree>
void AssignShapeQuad(const Tree& tree, html::NodeId node, ShapeQuad* quad) {
  quad->path_symbols.assign(tree.PathSymbols(node));
  quad->fanout = tree.Fanout(node);
  quad->depth = tree.Depth(node);
  quad->num_nodes = tree.SubtreeSize(node);
}

/// Builds the quadruple for the subtree of `tree` rooted at `node`.
template <html::ReadableTree Tree>
ShapeQuad MakeShapeQuad(const Tree& tree, html::NodeId node) {
  ShapeQuad quad;
  AssignShapeQuad(tree, node, &quad);
  return quad;
}

/// Term weights of the shape distance; must sum to 1 for the distance to
/// stay within [0, 1]. The paper starts with equal weights.
struct ShapeDistanceWeights {
  double path = 0.25;
  double fanout = 0.25;
  double depth = 0.25;
  double nodes = 0.25;

  /// Single-feature variants used in Figure 8 (P, F, D, N columns).
  static ShapeDistanceWeights PathOnly() { return {1, 0, 0, 0}; }
  static ShapeDistanceWeights FanoutOnly() { return {0, 1, 0, 0}; }
  static ShapeDistanceWeights DepthOnly() { return {0, 0, 1, 0}; }
  static ShapeDistanceWeights NodesOnly() { return {0, 0, 0, 1}; }
  static ShapeDistanceWeights All() { return {0.25, 0.25, 0.25, 0.25}; }
};

/// One count term of the shape distance: |a - b| / max(a, b), 0 when both
/// are 0.
inline double RatioTerm(int a, int b) {
  int hi = std::max(a, b);
  if (hi == 0) return 0.0;
  return static_cast<double>(std::abs(a - b)) / hi;
}

/// The shape distance with the (expensive) path term supplied by the
/// caller, who may have memoized it per distinct path. `a` and `b` are any
/// quads carrying `fanout`, `depth` and `num_nodes`; every shape distance
/// in the library is this sum, in this term order, so learning and serving
/// agree to the bit.
template <typename QuadA, typename QuadB>
double ShapeDistanceWithPathTerm(const QuadA& a, const QuadB& b,
                                 double path_term,
                                 const ShapeDistanceWeights& weights) {
  return weights.path * path_term +
         weights.fanout * RatioTerm(a.fanout, b.fanout) +
         weights.depth * RatioTerm(a.depth, b.depth) +
         weights.nodes * RatioTerm(a.num_nodes, b.num_nodes);
}

/// The paper's weighted subtree distance in [0, 1]:
///   w1 * editDist(P_i, P_j) / max(len) + w2 * |F_i - F_j| / max(F)
/// + w3 * |D_i - D_j| / max(D)        + w4 * |N_i - N_j| / max(N).
double ShapeDistance(const ShapeQuad& a, const ShapeQuad& b,
                     const ShapeDistanceWeights& weights = {});

/// One common subtree set: subtrees of the same content-region type, at
/// most one per page.
struct CommonSubtreeSet {
  std::vector<SubtreeRef> members;
};

/// Cross-page analysis step-1 knobs.
struct CommonSubtreeOptions {
  ShapeDistanceWeights weights;
  /// A page's candidate joins a set only if its distance to the set's
  /// prototype subtree is at most this.
  double max_match_distance = 0.3;
  /// Index (within the cluster's page list) of the prototype page p_r, or
  /// -1 to pick the page with the most content text. The content-rich
  /// choice keeps a mixed cluster (answer pages plus a few misclustered
  /// no-match pages) anchored on an answer page, so the answer-region set
  /// exists; the paper picks randomly within presumed-pure clusters.
  int prototype_page = -1;
  /// Match candidates whose tag path equals the prototype's exactly in a
  /// first pass (with the relaxed cutoff below), before distance-based
  /// matching. Template-generated counterpart regions share paths even
  /// when their fanout/size differ (2-result vs 12-result lists), so this
  /// keeps count variation from pushing true counterparts past the cutoff.
  bool exact_path_first = true;
  /// Distance cutoff used in the exact-path pass.
  double max_same_path_distance = 0.75;
  /// Threads for quadruple construction and per-page matching
  /// (0 = process default, 1 = serial). Pages match independently against
  /// the prototype and their matches merge in page order, so the sets are
  /// identical at every thread count.
  int threads = 0;
  /// Optional observability sink: records "shape.*" counters — interned
  /// path counts, edit distances actually computed, and the hit/miss split
  /// of the per-(set, candidate) distance memo. All integer tallies, summed
  /// after each parallel region, so totals are thread-count independent.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Cross-page analysis step 1: groups candidate subtrees from all
/// pages of one page cluster into common subtree sets.
///
/// Seeds one set per prototype-page candidate, then greedily matches each
/// other page's candidates to the nearest set by shape distance (ascending
/// distance, one subtree per page per set), discarding matches beyond
/// `max_match_distance`.
///
/// `candidates[i]` are the single-page-analysis survivors of `trees[i]`.
std::vector<CommonSubtreeSet> FindCommonSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<std::vector<html::NodeId>>& candidates,
    const CommonSubtreeOptions& options = {});

}  // namespace thor::core

#endif  // THOR_CORE_COMMON_SUBTREES_H_
