#ifndef THOR_CORE_HOT_EXTRACTOR_H_
#define THOR_CORE_HOT_EXTRACTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/common_subtrees.h"
#include "src/core/object_partition.h"
#include "src/core/template_registry.h"
#include "src/html/arena_parser.h"
#include "src/ir/sparse_vector.h"

namespace thor::core {

/// A template pre-lowered for the hot path: sparse-vector gates flattened
/// into plain sorted arrays so the serving loop runs on contiguous memory
/// with no per-request hashing.
struct CompiledTemplate {
  std::string path_symbols;
  ShapeQuad prototype;
  int support = 0;
  double max_distance = 0.4;
  double min_stable_match = 0.93;
  /// stable_tags entries (sorted by tag id, as SparseVector stores them).
  std::vector<ir::VectorEntry> stable;
  /// Sorted distinct tag ids from known_tags.
  std::vector<int32_t> known_ids;
};

/// Immutable compiled form of a TemplateRegistry; built once per cached
/// site generation and shared read-only across worker threads.
class CompiledTemplates {
 public:
  CompiledTemplates() = default;
  static CompiledTemplates Compile(const TemplateRegistry& registry);

  const std::vector<CompiledTemplate>& templates() const {
    return templates_;
  }
  bool empty() const { return templates_.empty(); }

 private:
  std::vector<CompiledTemplate> templates_;
};

/// \brief One-pass parse → signature → locate → partition engine.
///
/// Produces results bit-identical to the reference pipeline
/// (ParseHtml + TemplateRegistry::LocateDetailed + PartitionObjects +
/// ObjectTexts) — the contract the differential harness enforces — while
/// reusing one arena, one parser, and all scratch buffers across calls.
/// The candidate filter (`IsCandidateRoot`), the shape arithmetic, Stage 3
/// (`PartitionInto`) and the object text are the templates learning runs
/// too; only Locate is specific to this path. Locate's path
/// comparisons run on the page-local interned path table: the exact-path
/// flag and the prototype edit-distance term are computed once per
/// distinct path id per template instead of once per candidate.
///
/// Not thread-safe; keep one HotExtractor per worker thread (it is designed
/// to live in a thread_local and survive across ExtractBatch calls).
class HotExtractor {
 public:
  struct Result {
    /// Located.node != kInvalidNode.
    bool hit = false;
    /// Same fields (bitwise) as TemplateRegistry::LocateDetailed.
    TemplateRegistry::Located located;
    /// PathString of the pagelet (empty on a miss).
    std::string pagelet_path;
    /// ObjectTexts of the partitioned pagelet (empty on a miss).
    std::vector<std::string> objects;
  };

  /// Full serving-path extraction for one page.
  Result Extract(std::string_view html, const CompiledTemplates& templates,
                 const TemplateApplyOptions& apply = {},
                 const ObjectPartitionOptions& partition = {});

  /// Pieces exposed for the differential harness and benches. The returned
  /// tree is valid until the next Parse/Extract call.
  const html::ArenaTree& Parse(std::string_view html,
                               const html::ParseOptions& options = {});
  TemplateRegistry::Located Locate(const html::ArenaTree& tree,
                                   const CompiledTemplates& templates,
                                   const TemplateApplyOptions& apply = {});
  /// Whole-page tag-count signature of the last parsed tree
  /// (`TagCountVector`, read off the fused counts).
  ir::SparseVector PageTagCounts() const;

 private:
  struct HotQuad {
    uint32_t path_id = 0;
    int32_t fanout = 0;
    int32_t depth = 0;
    int32_t num_nodes = 0;
  };

  bool PassesStableGate(const html::ArenaTree& tree,
                        const CompiledTemplate& tmpl) const;
  double PathTerm(const html::ArenaTree& tree, const CompiledTemplate& tmpl,
                  uint32_t path_id);
  double Distance(const html::ArenaTree& tree, const CompiledTemplate& tmpl,
                  const HotQuad& quad, const ShapeDistanceWeights& weights);

  html::HotParser parser_;

  // Scratch, reused across calls (cleared, capacity retained).
  std::vector<html::NodeId> candidates_;
  std::vector<HotQuad> quads_;
  /// Per-distinct-path memo, reset per template: 0/1 = exact-path flag
  /// against tmpl.path_symbols, 2 = unset.
  std::vector<uint8_t> exact_memo_;
  /// Per-distinct-path memo, reset per template: edit-distance path term
  /// against the template prototype; < 0 = unset.
  std::vector<double> term_memo_;
  /// Stage-3 output and scratch.
  FlatObjects objects_;
};

}  // namespace thor::core

#endif  // THOR_CORE_HOT_EXTRACTOR_H_
