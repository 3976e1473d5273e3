#ifndef THOR_CORE_THOR_H_
#define THOR_CORE_THOR_H_

#include <vector>

#include "src/core/cluster_ranking.h"
#include "src/core/common_subtrees.h"
#include "src/core/object_partition.h"
#include "src/core/page.h"
#include "src/core/page_clustering.h"
#include "src/core/pagelet_selection.h"
#include "src/core/subtree_filter.h"
#include "src/core/subtree_ranking.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/trace.h"

namespace thor::core {

/// Phase-II configuration bundle.
struct Phase2Options {
  SubtreeFilterOptions filter;
  CommonSubtreeOptions common;
  SubtreeRankOptions rank;
  PageletSelectionOptions selection;
  /// Threads for the per-page candidate-subtree scan (0 = process default,
  /// 1 = serial). Shape matching and set ranking carry their own knobs in
  /// `common.threads` / `rank.threads`.
  int threads = 0;
  /// Optional observability sink: RunPhase2 records "phase2.*" counters
  /// (candidate/set/pagelet tallies) and propagates the registry into the
  /// shape-matching cache counters. RunThor fills this in from its own
  /// observability options.
  MetricsRegistry* metrics = nullptr;
};

/// Phase-II output for one page cluster.
struct Phase2Result {
  /// Every common subtree set with its intra-set similarity, ascending.
  std::vector<RankedSubtreeSet> ranked_sets;
  /// The selected QA-Pagelets (page indices refer to the input ordering).
  std::vector<ExtractedPagelet> pagelets;
};

/// Runs Phase II (single-page analysis, cross-page analysis, selection) on
/// the pages of one structurally similar cluster. This is the isolated
/// entry point the paper's Figure 8/9 experiments exercise.
Phase2Result RunPhase2(const std::vector<const html::ArenaTree*>& trees,
                       const Phase2Options& options = {});

/// Full THOR configuration.
///
/// The default clusters with k = 4 (the simulator produces four page
/// classes; the paper reports k in 2..5 "resulted in only minor changes"
/// because extra clusters just refine).
struct ThorOptions {
  ThorOptions() { clustering.kmeans.k = 4; }

  PageClusteringOptions clustering;
  ClusterRankOptions cluster_ranking;
  /// Number m of top-ranked page clusters passed to Phase II (the Figure 11
  /// precision/recall dial; the paper finds m = 2 a good compromise for
  /// k = 3). 0 selects adaptively: every cluster whose rank score is at
  /// least `cluster_score_fraction` of the best cluster's score advances,
  /// so an over-refined answer class (k larger than the real class count)
  /// still passes in full.
  int clusters_to_pass = 0;
  /// Relative score cutoff for adaptive cluster passing.
  double cluster_score_fraction = 0.65;
  /// Use the Stage-1 nonsense-probe knowledge: nonsense words are
  /// unindexed by construction, so their answer pages are "no matches" (or
  /// error) pages. Any cluster that captures at least
  /// `nonsense_veto_fraction` of the nonsense-probe pages is the no-match
  /// template and is never passed to Phase II.
  bool veto_nonsense_clusters = true;
  double nonsense_veto_fraction = 0.5;
  /// Adaptive mode ignores clusters smaller than this: cross-page analysis
  /// needs several structurally similar pages, and a one-page outlier
  /// cluster must not define the score ceiling either.
  int min_cluster_pages = 3;
  /// Graceful degradation: input pages whose parsed tree has fewer tag
  /// nodes than this (the residue of truncated or garbled fetches) are
  /// dropped before clustering and counted in the result diagnostics,
  /// instead of poisoning Phase I.
  int min_page_nodes = 3;
  Phase2Options phase2;
  ObjectPartitionOptions objects;
  /// Threads for running Phase II over the passed clusters concurrently
  /// (0 = process default, 1 = serial). Per-cluster outputs are merged in
  /// cluster-rank order, so the result is identical at every thread count.
  int threads = 0;

  /// Deadline / stop token for the whole run, checked at every stage
  /// boundary (after the drop pass, clustering, ranking, and before each
  /// Phase-II cluster). Expiry aborts the run with a typed
  /// kDeadlineExceeded error — never a partial ThorResult, so a caller
  /// like the serving layer's relearn can never commit a half-analyzed
  /// generation. Default: infinite (no deadline).
  Deadline deadline;

  /// Observability wiring for one pipeline run. All members optional; a
  /// default-constructed struct means "observe into run-local sinks only"
  /// (the run still returns a PipelineReport built from them).
  struct Observability {
    /// External metrics sink, e.g. shared across the sites of a corpus
    /// run. Null: RunThor uses a run-local registry.
    MetricsRegistry* metrics = nullptr;
    /// External tracer; its existing spans become part of this run's
    /// report. Null: RunThor uses a run-local tracer.
    Tracer* tracer = nullptr;
    /// Time source for the run-local tracer (ignored when `tracer` is
    /// set). Null: wall time. Tests pass a SimulatedClock to make span
    /// timestamps bit-reproducible.
    const Clock* clock = nullptr;
  };
  Observability observability;

  /// Sets every threads knob in the pipeline — Phase-I restarts, the
  /// Phase-II cluster fan-out, candidate scanning, shape matching, and set
  /// ranking. `SetAllThreads(1)` is the fully serial escape hatch.
  void SetAllThreads(int t) {
    threads = t;
    clustering.kmeans.threads = t;
    phase2.threads = t;
    phase2.common.threads = t;
    phase2.rank.threads = t;
  }
};

/// One page's extraction outcome.
struct ThorPageResult {
  int page_index = 0;
  html::NodeId pagelet = html::kInvalidNode;
  std::vector<ObjectSpan> objects;
};

/// Degradation counters for one pipeline run. All zero on clean input.
struct ThorDiagnostics {
  int input_pages = 0;
  /// Pages excluded before clustering because their tree was degenerate
  /// (see ThorOptions::min_page_nodes). Dropped pages keep assignment -1.
  int pages_dropped = 0;
  /// Non-vetoed clusters skipped in adaptive passing because they held
  /// fewer than min_cluster_pages pages (e.g. after drops).
  int clusters_skipped_small = 0;
  /// Clusters vetoed by Stage-1 nonsense knowledge.
  int clusters_vetoed = 0;

  bool degraded() const { return pages_dropped > 0; }
};

/// End-to-end THOR output.
struct ThorResult {
  PageClusteringResult clustering;
  std::vector<RankedCluster> ranked_clusters;
  /// Cluster indices that were passed to Phase II, best first.
  std::vector<int> passed_clusters;
  /// Extraction outcomes for every page that reached Phase II and yielded
  /// a pagelet.
  std::vector<ThorPageResult> pages;
  /// How much of the input survived to analysis (hostile-transport runs).
  ThorDiagnostics diagnostics;
  /// Stage spans + metric snapshot of this run (see ThorOptions::
  /// Observability). With an external registry/tracer the report reflects
  /// everything recorded there so far, this run included.
  PipelineReport report;
};

/// \brief Runs the complete two-phase THOR pipeline plus Stage-3 object
/// partitioning over a probed page sample from one site.
Result<ThorResult> RunThor(const std::vector<Page>& pages,
                           const ThorOptions& options = {});

}  // namespace thor::core

#endif  // THOR_CORE_THOR_H_
