#include "src/core/thor.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "src/util/parallel.h"

namespace thor::core {

namespace {

// RunPhase2 over terms already analysed: page i of `trees` is page
// `term_pages[i]` of `terms`.
Phase2Result RunPhase2WithTerms(
    const std::vector<const html::ArenaTree*>& trees,
    const Phase2Options& options, const PageTerms& terms,
    const std::vector<int>& term_pages) {
  Phase2Result result;
  std::vector<std::vector<html::NodeId>> candidates = ParallelMap(
      trees.size(),
      [&](size_t i) { return CandidateSubtrees(*trees[i], options.filter); },
      options.threads);
  CommonSubtreeOptions common = options.common;
  if (common.metrics == nullptr) common.metrics = options.metrics;
  std::vector<CommonSubtreeSet> sets =
      FindCommonSubtreeSets(trees, candidates, common);
  result.ranked_sets =
      RankSubtreeSets(trees, sets, terms, term_pages, options.rank);
  result.pagelets =
      SelectPagelets(trees, result.ranked_sets, options.selection);
  if (options.metrics != nullptr) {
    MetricsRegistry* metrics = options.metrics;
    AddCounter(metrics, "phase2.clusters_analyzed");
    AddCounter(metrics, "phase2.pages_scanned",
               static_cast<int64_t>(trees.size()));
    int64_t total_candidates = 0;
    for (const auto& page_candidates : candidates) {
      total_candidates += static_cast<int64_t>(page_candidates.size());
      Observe(metrics, "phase2.candidates_per_page",
              static_cast<double>(page_candidates.size()));
    }
    AddCounter(metrics, "phase2.candidates_total", total_candidates);
    AddCounter(metrics, "phase2.sets_found",
               static_cast<int64_t>(result.ranked_sets.size()));
    int64_t pruned_static = 0;
    for (const RankedSubtreeSet& set : result.ranked_sets) {
      if (!set.IsDynamic(options.rank.prune_threshold)) ++pruned_static;
    }
    AddCounter(metrics, "phase2.sets_pruned_static", pruned_static);
    AddCounter(metrics, "phase2.pagelets_selected",
               static_cast<int64_t>(result.pagelets.size()));
  }
  return result;
}

/// A page is analyzable when parsing produced some real structure; the
/// residue of a truncated/garbled fetch (root alone, or root+body with
/// nothing in it) is not.
bool PageUsable(const Page& page, int min_page_nodes) {
  const html::ArenaTree& tree = page.tree;
  int tag_nodes = 0;
  for (html::NodeId id = 0;
       id < tree.node_count() && tag_nodes < min_page_nodes; ++id) {
    if (tree.node(id).is_tag()) ++tag_nodes;
  }
  return tag_nodes >= min_page_nodes;
}

}  // namespace

Phase2Result RunPhase2(const std::vector<const html::ArenaTree*>& trees,
                       const Phase2Options& options) {
  if (trees.empty()) return {};
  std::vector<int> term_pages(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    term_pages[i] = static_cast<int>(i);
  }
  return RunPhase2WithTerms(trees, options,
                            PageTerms(trees), term_pages);
}

Result<ThorResult> RunThor(const std::vector<Page>& all_pages,
                           const ThorOptions& options) {
  if (all_pages.empty()) {
    return Status::InvalidArgument("RunThor: no pages");
  }
  // Observability: callers may supply a shared registry/tracer; otherwise
  // the run observes into local sinks. Either way the run's report carries
  // the spans and a metric snapshot.
  MetricsRegistry local_registry;
  MetricsRegistry* metrics = options.observability.metrics != nullptr
                                 ? options.observability.metrics
                                 : &local_registry;
  Tracer local_tracer(options.observability.clock);
  Tracer* tracer = options.observability.tracer != nullptr
                       ? options.observability.tracer
                       : &local_tracer;
  Tracer::Scope run_span(tracer, "run_thor");
  AddCounter(metrics, "thor.runs");
  AddCounter(metrics, "thor.input_pages",
             static_cast<int64_t>(all_pages.size()));

  // Stage-boundary deadline checks: expiry aborts the whole run with a
  // typed error (see ThorOptions::deadline), counted for observability.
  auto check_deadline = [&](const char* stage) -> Status {
    Status st = options.deadline.Check(stage);
    if (!st.ok()) AddCounter(metrics, "thor.deadline_exceeded");
    return st;
  };
  THOR_RETURN_IF_ERROR(check_deadline("run_thor entry"));

  ThorResult result;
  result.diagnostics.input_pages = static_cast<int>(all_pages.size());

  // Graceful degradation: shed unusable pages up front instead of letting
  // a truncated fetch distort clustering or crash Phase II.
  std::vector<int> original_index_of;
  original_index_of.reserve(all_pages.size());
  {
    Tracer::Scope span(tracer, "drop_degenerate_pages");
    for (size_t i = 0; i < all_pages.size(); ++i) {
      if (PageUsable(all_pages[i], options.min_page_nodes)) {
        original_index_of.push_back(static_cast<int>(i));
      }
    }
  }
  result.diagnostics.pages_dropped =
      static_cast<int>(all_pages.size() - original_index_of.size());
  AddCounter(metrics, "thor.pages_dropped",
             result.diagnostics.pages_dropped);
  if (original_index_of.empty()) {
    return Status::InvalidArgument(
        "RunThor: no usable pages (" +
        std::to_string(result.diagnostics.pages_dropped) +
        " dropped as degenerate)");
  }
  std::vector<Page> filtered;
  const std::vector<Page>* input = &all_pages;
  if (result.diagnostics.pages_dropped > 0) {
    filtered.reserve(original_index_of.size());
    for (int i : original_index_of) {
      filtered.push_back(all_pages[static_cast<size_t>(i)]);
    }
    input = &filtered;
  }
  const std::vector<Page>& pages = *input;

  PageClusteringOptions clustering_options = options.clustering;
  if (clustering_options.kmeans.metrics == nullptr) {
    clustering_options.kmeans.metrics = metrics;
  }
  {
    Tracer::Scope span(tracer, "phase1_clustering");
    auto clustering = ClusterPages(pages, clustering_options);
    if (!clustering.ok()) return clustering.status();
    result.clustering = std::move(*clustering);
  }
  SetGauge(metrics, "phase1.internal_similarity",
           result.clustering.internal_similarity);
  THOR_RETURN_IF_ERROR(check_deadline("phase1_clustering"));

  // No early return between here and the matching EndSpan, so explicit
  // begin/end is safe and keeps the stage boundary exact.
  int ranking_span = tracer->BeginSpan("cluster_ranking");
  // One term analysis of the usable pages serves cluster ranking and every
  // cluster's Phase II.
  std::vector<const html::ArenaTree*> page_trees;
  page_trees.reserve(pages.size());
  for (const Page& page : pages) page_trees.push_back(&page.tree);
  const PageTerms terms(page_trees);
  result.ranked_clusters =
      RankClusters(pages, result.clustering.assignment, result.clustering.k,
                   terms, options.cluster_ranking);
  // Stage-1 knowledge: the cluster(s) holding the nonsense-probe answers
  // realize the no-match template and cannot contain QA-Pagelets.
  std::vector<bool> vetoed(static_cast<size_t>(result.clustering.k), false);
  if (options.veto_nonsense_clusters) {
    int total_nonsense = 0;
    std::vector<int> nonsense_per_cluster(
        static_cast<size_t>(result.clustering.k), 0);
    for (size_t i = 0; i < pages.size(); ++i) {
      if (!pages[i].from_nonsense_probe) continue;
      ++total_nonsense;
      int c = result.clustering.assignment[i];
      if (c >= 0 && c < result.clustering.k) {
        ++nonsense_per_cluster[static_cast<size_t>(c)];
      }
    }
    if (total_nonsense > 0) {
      std::vector<int> cluster_sizes(
          static_cast<size_t>(result.clustering.k), 0);
      for (int a : result.clustering.assignment) {
        if (a >= 0 && a < result.clustering.k) {
          ++cluster_sizes[static_cast<size_t>(a)];
        }
      }
      double base_rate =
          static_cast<double>(total_nonsense) / pages.size();
      for (int c = 0; c < result.clustering.k; ++c) {
        int in_cluster = nonsense_per_cluster[static_cast<size_t>(c)];
        int size = cluster_sizes[static_cast<size_t>(c)];
        if (size == 0) continue;
        double share = static_cast<double>(in_cluster) / total_nonsense;
        double density = static_cast<double>(in_cluster) / size;
        // Veto requires both: the cluster absorbs most nonsense pages AND
        // nonsense pages are clearly over-represented in it. The density
        // condition keeps a merged answers+no-match cluster (a Phase-I
        // mistake) alive so Phase II can still mine its answer pages.
        if (share >= options.nonsense_veto_fraction &&
            density >= 1.8 * base_rate) {
          vetoed[static_cast<size_t>(c)] = true;
        }
      }
    }
  }
  for (bool v : vetoed) {
    if (v) ++result.diagnostics.clusters_vetoed;
  }
  if (options.clusters_to_pass > 0) {
    for (const RankedCluster& rc : result.ranked_clusters) {
      if (static_cast<int>(result.passed_clusters.size()) >=
          options.clusters_to_pass) {
        break;
      }
      if (vetoed[static_cast<size_t>(rc.cluster)]) continue;
      result.passed_clusters.push_back(rc.cluster);
    }
  } else {
    double top_score = -1.0;
    for (const RankedCluster& rc : result.ranked_clusters) {
      if (rc.num_pages >= options.min_cluster_pages &&
          !vetoed[static_cast<size_t>(rc.cluster)]) {
        top_score = std::max(top_score, rc.score);
      }
    }
    double cutoff = top_score * options.cluster_score_fraction;
    for (const RankedCluster& rc : result.ranked_clusters) {
      if (vetoed[static_cast<size_t>(rc.cluster)]) continue;
      if (rc.num_pages < options.min_cluster_pages) {
        // Too few pages for cross-page analysis — common after hostile
        // transports shed most of a class's pages.
        if (rc.num_pages > 0) ++result.diagnostics.clusters_skipped_small;
        continue;
      }
      if (rc.score >= cutoff) result.passed_clusters.push_back(rc.cluster);
    }
  }
  tracer->EndSpan(ranking_span);
  AddCounter(metrics, "thor.clusters_vetoed",
             result.diagnostics.clusters_vetoed);
  AddCounter(metrics, "thor.clusters_skipped_small",
             result.diagnostics.clusters_skipped_small);
  AddCounter(metrics, "thor.clusters_passed",
             static_cast<int64_t>(result.passed_clusters.size()));

  THOR_RETURN_IF_ERROR(check_deadline("cluster_ranking"));

  Phase2Options phase2_options = options.phase2;
  if (phase2_options.metrics == nullptr) phase2_options.metrics = metrics;
  int phase2_span = tracer->BeginSpan("phase2_extraction");

  // Phase II + Stage 3 per passed cluster. Clusters are disjoint page sets
  // reading shared const trees, so they run concurrently; the per-cluster
  // outputs merge in cluster-rank order below, making the result identical
  // to the serial loop at every thread count.
  std::vector<std::vector<ThorPageResult>> cluster_outputs = ParallelMap(
      result.passed_clusters.size(),
      [&](size_t ci) {
        int cluster_id = result.passed_clusters[ci];
        std::vector<ThorPageResult> cluster_results;
        // A deadline that fires mid-Phase-II skips the remaining clusters'
        // work; the run still ends in the typed error below, this just
        // stops burning the thread pool on a result nobody will see.
        if (options.deadline.expired()) return cluster_results;
        // Collect this cluster's pages, remembering original indices.
        std::vector<const html::ArenaTree*> trees;
        std::vector<int> original_index;
        for (size_t i = 0; i < pages.size(); ++i) {
          if (result.clustering.assignment[i] == cluster_id) {
            trees.push_back(&pages[i].tree);
            original_index.push_back(static_cast<int>(i));
          }
        }
        if (trees.empty()) return cluster_results;
        Phase2Result phase2 = RunPhase2WithTerms(trees, phase2_options, terms,
                                                 original_index);
        for (const ExtractedPagelet& pagelet : phase2.pagelets) {
          ThorPageResult page_result;
          page_result.page_index =
              original_index[static_cast<size_t>(pagelet.page_index)];
          page_result.pagelet = pagelet.node;
          const html::ArenaTree& tree =
              *trees[static_cast<size_t>(pagelet.page_index)];
          page_result.objects = PartitionObjects(tree, pagelet.node,
                                                 pagelet.dynamic_descendants,
                                                 options.objects);
          cluster_results.push_back(std::move(page_result));
        }
        // Cross-page Stage-3 validation: collapse field-row "objects" of
        // detail-page clusters into one record per page.
        std::vector<PageObjects> cluster_objects;
        cluster_objects.reserve(cluster_results.size());
        for (ThorPageResult& page_result : cluster_results) {
          cluster_objects.push_back(
              {&pages[static_cast<size_t>(page_result.page_index)].tree,
               page_result.pagelet, std::move(page_result.objects)});
        }
        CollapseFieldRowObjects(&cluster_objects);
        for (size_t i = 0; i < cluster_results.size(); ++i) {
          cluster_results[i].objects = std::move(cluster_objects[i].objects);
        }
        return cluster_results;
      },
      options.threads);
  for (std::vector<ThorPageResult>& cluster_results : cluster_outputs) {
    for (ThorPageResult& page_result : cluster_results) {
      result.pages.push_back(std::move(page_result));
    }
  }
  tracer->EndSpan(phase2_span);
  THOR_RETURN_IF_ERROR(check_deadline("phase2_extraction"));
  AddCounter(metrics, "thor.pages_extracted",
             static_cast<int64_t>(result.pages.size()));

  // Map results computed over the filtered pages back to the caller's
  // indexing: dropped pages get assignment -1 and an empty vector slot.
  int remap_span = tracer->BeginSpan("remap_results");
  if (result.diagnostics.pages_dropped > 0) {
    std::vector<int> full_assignment(all_pages.size(), -1);
    for (size_t f = 0; f < original_index_of.size(); ++f) {
      full_assignment[static_cast<size_t>(original_index_of[f])] =
          result.clustering.assignment[f];
    }
    result.clustering.assignment = std::move(full_assignment);
    if (!result.clustering.vectors.empty()) {
      std::vector<ir::SparseVector> full_vectors(all_pages.size());
      for (size_t f = 0; f < original_index_of.size(); ++f) {
        full_vectors[static_cast<size_t>(original_index_of[f])] =
            std::move(result.clustering.vectors[f]);
      }
      result.clustering.vectors = std::move(full_vectors);
    }
    for (ThorPageResult& page_result : result.pages) {
      page_result.page_index =
          original_index_of[static_cast<size_t>(page_result.page_index)];
    }
  }
  tracer->EndSpan(remap_span);
  // The still-open run_thor root gets its duration-so-far in the snapshot.
  result.report.spans = tracer->Snapshot();
  result.report.metrics = metrics->Snapshot();
  return result;
}

}  // namespace thor::core
