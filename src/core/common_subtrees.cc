#include "src/core/common_subtrees.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "src/text/edit_distance.h"
#include "src/util/parallel.h"

namespace thor::core {

namespace {

// One candidate's shape: a ShapeQuad whose path is a view of its tree's
// path table, so building it copies no string.
struct CandidateShape {
  std::string_view path_symbols;
  int fanout = 0;
  int depth = 0;
  int num_nodes = 0;
};

// Interns path-symbol strings to dense ids so edit distances can be cached
// per distinct pair instead of per candidate pair. Views point into the
// trees' path tables, which outlive the table.
class PathInterner {
 public:
  int Intern(std::string_view path) {
    auto [it, inserted] =
        ids_.emplace(path, static_cast<int>(paths_.size()));
    if (inserted) paths_.push_back(path);
    return it->second;
  }

  std::string_view path(int id) const {
    return paths_[static_cast<size_t>(id)];
  }
  int size() const { return static_cast<int>(paths_.size()); }

 private:
  std::unordered_map<std::string_view, int> ids_;
  std::vector<std::string_view> paths_;
};

}  // namespace

double ShapeDistance(const ShapeQuad& a, const ShapeQuad& b,
                     const ShapeDistanceWeights& weights) {
  double path_term =
      a.path_symbols == b.path_symbols
          ? 0.0
          : text::NormalizedEditDistance(a.path_symbols, b.path_symbols);
  return ShapeDistanceWithPathTerm(a, b, path_term, weights);
}

std::vector<CommonSubtreeSet> FindCommonSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<std::vector<html::NodeId>>& candidates,
    const CommonSubtreeOptions& options) {
  std::vector<CommonSubtreeSet> sets;
  if (trees.empty() || candidates.size() != trees.size()) return sets;
  int prototype = options.prototype_page;
  if (prototype < 0 || prototype >= static_cast<int>(trees.size())) {
    // Auto: a content-rich page, but not an outlier — the page at the 75th
    // percentile of content length. This anchors a mixed cluster (answer
    // pages plus misclustered no-match pages) on an answer page, while one
    // freak page cannot hijack the prototype role. Only that one order
    // statistic is needed, so a full sort is avoided; ties break toward
    // the lower page index to keep the choice well defined.
    std::vector<int> content_lengths(trees.size());
    for (size_t i = 0; i < trees.size(); ++i) {
      content_lengths[i] = trees[i]->node(trees[i]->root()).content_length;
    }
    std::vector<int> order(trees.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    auto richer = [&content_lengths](int a, int b) {
      int la = content_lengths[static_cast<size_t>(a)];
      int lb = content_lengths[static_cast<size_t>(b)];
      if (la != lb) return la > lb;
      return a < b;
    };
    auto nth = order.begin() + static_cast<long>(order.size() / 4);
    std::nth_element(order.begin(), nth, order.end(), richer);
    prototype = *nth;
  }

  // Quadruples for every page's candidates, pages in parallel (each task
  // writes only its own page's slot).
  std::vector<std::vector<CandidateShape>> quads(trees.size());
  ParallelFor(
      trees.size(),
      [&](size_t page) {
        const html::ArenaTree& tree = *trees[page];
        const auto& page_candidates = candidates[page];
        quads[page].reserve(page_candidates.size());
        for (html::NodeId node : page_candidates) {
          quads[page].push_back({tree.PathSymbols(node), tree.Fanout(node),
                                 tree.Depth(node), tree.SubtreeSize(node)});
        }
      },
      options.threads);

  // Seed one set per prototype candidate.
  const auto& proto_candidates = candidates[static_cast<size_t>(prototype)];
  const auto& proto_quads = quads[static_cast<size_t>(prototype)];
  sets.reserve(proto_candidates.size());
  for (html::NodeId node : proto_candidates) {
    sets.push_back(CommonSubtreeSet{{{prototype, node}}});
  }

  // Memoize the normalized path edit distance over interned symbol
  // sequences: every (prototype path, candidate path) pair is computed once
  // — in parallel — instead of once per candidate pair per greedy pass.
  PathInterner interner;
  std::vector<int> proto_path_ids;
  proto_path_ids.reserve(proto_quads.size());
  for (const CandidateShape& quad : proto_quads) {
    proto_path_ids.push_back(interner.Intern(quad.path_symbols));
  }
  int num_proto_paths = interner.size();
  std::vector<std::vector<int>> page_path_ids(trees.size());
  for (size_t page = 0; page < trees.size(); ++page) {
    if (static_cast<int>(page) == prototype) continue;
    page_path_ids[page].reserve(quads[page].size());
    for (const CandidateShape& quad : quads[page]) {
      page_path_ids[page].push_back(interner.Intern(quad.path_symbols));
    }
  }
  int num_paths = interner.size();
  std::vector<double> path_distance(
      static_cast<size_t>(num_proto_paths) * static_cast<size_t>(num_paths),
      0.0);
  ParallelFor(
      path_distance.size(),
      [&](size_t flat) {
        int p = static_cast<int>(flat) / num_paths;
        int q = static_cast<int>(flat) % num_paths;
        path_distance[flat] =
            p == q ? 0.0
                   : text::NormalizedEditDistance(interner.path(p),
                                                  interner.path(q));
      },
      options.threads);

  // Greedy minimum-distance matching per page: sort all (set, candidate)
  // pairs by distance, take each set and each candidate at most once.
  // Pages depend only on the prototype, never on each other, so they match
  // in parallel and their picks merge in page order below.
  struct Pair {
    double distance;
    int set_index;
    int cand_index;
  };
  struct Match {
    int set_index;
    int cand_index;
  };
  std::vector<std::vector<Match>> page_matches(trees.size());
  // Per-page memo hit/miss tallies, aggregated into the registry after the
  // parallel region so the totals are independent of scheduling.
  std::vector<int64_t> memo_hits(trees.size(), 0);
  std::vector<int64_t> memo_misses(trees.size(), 0);
  ParallelFor(
      trees.size(),
      [&](size_t page) {
        if (static_cast<int>(page) == prototype) return;
        const auto& page_quads = quads[page];
        const auto& path_ids = page_path_ids[page];
        std::vector<bool> set_taken(proto_quads.size(), false);
        std::vector<bool> cand_taken(page_quads.size(), false);
        // Full-distance memo per (set, candidate): values computed in the
        // exact-path pass are reused verbatim by the relaxed pass.
        constexpr double kUnset = std::numeric_limits<double>::infinity();
        std::vector<double> memo(proto_quads.size() * page_quads.size(),
                                 kUnset);
        auto pair_distance = [&](size_t s, size_t c) {
          double& slot = memo[s * page_quads.size() + c];
          if (slot == kUnset) {
            ++memo_misses[page];
            double path_term =
                path_distance[static_cast<size_t>(proto_path_ids[s]) *
                                  static_cast<size_t>(num_paths) +
                              static_cast<size_t>(path_ids[c])];
            slot = ShapeDistanceWithPathTerm(proto_quads[s], page_quads[c],
                                             path_term, options.weights);
          } else {
            ++memo_hits[page];
          }
          return slot;
        };
        auto greedy_pass = [&](bool require_same_path, double cutoff) {
          std::vector<Pair> pairs;
          for (size_t s = 0; s < proto_quads.size(); ++s) {
            if (set_taken[s]) continue;
            for (size_t c = 0; c < page_quads.size(); ++c) {
              if (cand_taken[c]) continue;
              if (require_same_path &&
                  proto_path_ids[s] != path_ids[c]) {
                continue;
              }
              double d = pair_distance(s, c);
              if (d <= cutoff) {
                pairs.push_back(
                    {d, static_cast<int>(s), static_cast<int>(c)});
              }
            }
          }
          std::sort(pairs.begin(), pairs.end(),
                    [](const Pair& a, const Pair& b) {
                      if (a.distance != b.distance) {
                        return a.distance < b.distance;
                      }
                      if (a.set_index != b.set_index) {
                        return a.set_index < b.set_index;
                      }
                      return a.cand_index < b.cand_index;
                    });
          for (const Pair& p : pairs) {
            if (set_taken[static_cast<size_t>(p.set_index)] ||
                cand_taken[static_cast<size_t>(p.cand_index)]) {
              continue;
            }
            set_taken[static_cast<size_t>(p.set_index)] = true;
            cand_taken[static_cast<size_t>(p.cand_index)] = true;
            page_matches[page].push_back({p.set_index, p.cand_index});
          }
        };
        if (options.exact_path_first) {
          greedy_pass(/*require_same_path=*/true,
                      options.max_same_path_distance);
        }
        greedy_pass(/*require_same_path=*/false, options.max_match_distance);
      },
      options.threads);

  // Serial merge in page order: member order within every set matches the
  // serial page loop exactly.
  for (size_t page = 0; page < trees.size(); ++page) {
    for (const Match& m : page_matches[page]) {
      sets[static_cast<size_t>(m.set_index)].members.push_back(
          {static_cast<int>(page),
           candidates[page][static_cast<size_t>(m.cand_index)]});
    }
  }
  if (options.metrics != nullptr) {
    int64_t hits = 0;
    int64_t misses = 0;
    for (size_t page = 0; page < trees.size(); ++page) {
      hits += memo_hits[page];
      misses += memo_misses[page];
    }
    AddCounter(options.metrics, "shape.pair_memo_hits", hits);
    AddCounter(options.metrics, "shape.pair_memo_misses", misses);
    AddCounter(options.metrics, "shape.distinct_paths", num_paths);
    // Off-diagonal entries of the interned-pair table: the edit distances
    // actually run, vs the naive per-candidate-pair count.
    AddCounter(options.metrics, "shape.path_distances_computed",
               static_cast<int64_t>(num_proto_paths) * num_paths -
                   std::min(num_proto_paths, num_paths));
    AddCounter(options.metrics, "shape.sets_seeded",
               static_cast<int64_t>(proto_candidates.size()));
  }
  return sets;
}

}  // namespace thor::core
