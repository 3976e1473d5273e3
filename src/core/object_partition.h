#ifndef THOR_CORE_OBJECT_PARTITION_H_
#define THOR_CORE_OBJECT_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/common_subtrees.h"
#include "src/html/arena_tree.h"
#include "src/html/tree_read.h"

namespace thor::core {

/// Stage-3 knobs.
struct ObjectPartitionOptions {
  /// Minimum repetitions for a child pattern to count as an object list.
  int min_objects = 2;
  /// Two sibling subtrees are "the same object type" when their shape
  /// distance is at most this. Sibling records rendered from one template
  /// land near 0; a heading or pager next to them lands around 0.3.
  double shape_distance_threshold = 0.25;
  /// Longest repeated separator period tried (e.g. 2 for <dt>/<dd> pairs).
  int max_period = 4;
};

/// One QA-Object: a run of consecutive children of the pagelet root.
struct ObjectSpan {
  /// Consecutive sibling nodes forming the object (usually one; two for
  /// <dt>/<dd>-style layouts).
  std::vector<html::NodeId> parts;

  html::NodeId root() const {
    return parts.empty() ? html::kInvalidNode : parts.front();
  }
};

/// Stage-3 objects, flat: object k is
/// `parts[offsets[k] .. offsets[k + 1])`. The other members are
/// `PartitionInto`'s scratch. Every vector keeps its capacity across
/// calls, so a caller that keeps one `FlatObjects` partitions without
/// allocating once it has warmed up.
struct FlatObjects {
  std::vector<html::NodeId> parts;
  std::vector<int32_t> offsets;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const html::NodeId> object(size_t k) const {
    return std::span<const html::NodeId>(parts).subspan(
        static_cast<size_t>(offsets[k]),
        static_cast<size_t>(offsets[k + 1] - offsets[k]));
  }

  std::vector<html::NodeId> children;
  /// Grown, never shrunk, so each path string keeps its capacity.
  std::vector<ShapeQuad> quads;
  std::vector<size_t> group;
  std::vector<size_t> best_group;
};

/// Which Stage-3 rule produced a partition.
enum class PartitionRule { kPeriod, kShapeGroup, kWholePagelet };

/// \brief Stage 3: partitions a QA-Pagelet into itemized QA-Objects,
/// written once over `html::ReadableTree` (learning and serving read the
/// ArenaTree, the differential tests also the test oracle's tree).
///
/// Detects the repeated structure among the pagelet root's tag children
/// that carry content: first by exact repeated tag-period (handles table
/// rows, list items and dt/dd pairs), then by shape-similarity grouping
/// (handles ragged item markup); a pagelet with no repetition (a
/// single-match detail region) is one object spanning the whole pagelet.
///
/// `hints` may carry Phase-II's dynamic-descendant recommendations; any
/// hinted node that is a direct child of the pagelet root seeds the
/// dominant group. `pagelet` must be a node of `tree`. Returns the rule
/// that fired.
template <html::ReadableTree Tree>
PartitionRule PartitionInto(const Tree& tree, html::NodeId pagelet,
                            std::span<const html::NodeId> hints,
                            const ObjectPartitionOptions& options,
                            FlatObjects* out) {
  out->parts.clear();
  out->offsets.assign(1, 0);
  auto close_object = [out] {
    out->offsets.push_back(static_cast<int32_t>(out->parts.size()));
  };
  // Separators like <hr> or empty spacer cells are not object roots.
  std::vector<html::NodeId>& children = out->children;
  children.clear();
  for (html::NodeId child : tree.Children(pagelet)) {
    if (tree.node(child).is_tag() && tree.node(child).content_length > 0) {
      children.push_back(child);
    }
  }
  const int count = static_cast<int>(children.size());

  // 1. Exact repeated tag-period detection: the child tag sequence reads
  // (t1..tp)^m with m >= min_objects, a trailing partial period tolerated
  // (truncated result lists). Periods are tried shortest first, so
  // <tr><tr>... is period 1 and <dt><dd><dt><dd> is period 2.
  auto tag_at = [&](int i) {
    return tree.node(children[static_cast<size_t>(i)]).tag;
  };
  for (int period = 1; period <= options.max_period; ++period) {
    bool tiles = count >= period * options.min_objects;
    for (int i = period; i < count && tiles; ++i) {
      tiles = tag_at(i) == tag_at(i - period);
    }
    const int repeats = tiles ? count / period : 0;
    if (repeats < options.min_objects) continue;
    for (int start = 0; start < count; start += period) {
      for (int i = start; i < start + period && i < count; ++i) {
        out->parts.push_back(children[static_cast<size_t>(i)]);
      }
      close_object();
    }
    return PartitionRule::kPeriod;
  }

  // 2. Shape-similarity grouping: the largest group of children within
  // the shape threshold of one seed child; if it repeats enough, its
  // members are the objects. Phase-II hints seed first.
  if (count >= options.min_objects) {
    std::vector<ShapeQuad>& quads = out->quads;
    if (quads.size() < children.size()) quads.resize(children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      AssignShapeQuad(tree, children[i], &quads[i]);
    }
    std::vector<size_t>& group = out->group;
    std::vector<size_t>& best_group = out->best_group;
    best_group.clear();
    auto try_seed = [&](size_t seed) {
      group.clear();
      for (size_t i = 0; i < children.size(); ++i) {
        if (ShapeDistance(quads[seed], quads[i]) <=
            options.shape_distance_threshold) {
          group.push_back(i);
        }
      }
      if (group.size() > best_group.size()) best_group.swap(group);
    };
    for (html::NodeId hint : hints) {
      for (size_t i = 0; i < children.size(); ++i) {
        if (children[i] == hint) try_seed(i);
      }
    }
    for (size_t i = 0; i < children.size(); ++i) try_seed(i);
    if (static_cast<int>(best_group.size()) >= options.min_objects) {
      for (size_t index : best_group) {
        out->parts.push_back(children[index]);
        close_object();
      }
      return PartitionRule::kShapeGroup;
    }
  }

  // 3. No repetition: the pagelet is one object (single-match detail).
  out->parts.push_back(pagelet);
  close_object();
  return PartitionRule::kWholePagelet;
}

/// Appends the text of one object — the `SubtreeText` of each of its
/// parts, space-joined — to `out`, with a leading space when `out` is
/// non-empty. Content nodes are never empty in either tree, so appending
/// each part's content nodes in turn is exactly that join.
template <html::ReadableTree Tree>
void AppendObjectText(const Tree& tree, std::span<const html::NodeId> parts,
                      std::string* out) {
  for (html::NodeId part : parts) tree.AppendSubtreeText(part, out);
}

/// `PartitionInto` as one `ObjectSpan` per object; no objects when
/// `pagelet` is kInvalidNode.
template <html::ReadableTree Tree>
std::vector<ObjectSpan> PartitionObjects(
    const Tree& tree, html::NodeId pagelet,
    const std::vector<html::NodeId>& hints = {},
    const ObjectPartitionOptions& options = {}) {
  std::vector<ObjectSpan> objects;
  if (pagelet == html::kInvalidNode) return objects;
  FlatObjects flat;
  PartitionInto(tree, pagelet, hints, options, &flat);
  objects.resize(flat.size());
  for (size_t k = 0; k < flat.size(); ++k) {
    std::span<const html::NodeId> parts = flat.object(k);
    objects[k].parts.assign(parts.begin(), parts.end());
  }
  return objects;
}

/// Convenience: the concatenated text of each object.
template <html::ReadableTree Tree>
std::vector<std::string> ObjectTexts(const Tree& tree,
                                     const std::vector<ObjectSpan>& objects) {
  std::vector<std::string> texts(objects.size());
  for (size_t k = 0; k < objects.size(); ++k) {
    AppendObjectText(tree, objects[k].parts, &texts[k]);
  }
  return texts;
}

/// One page's pagelet and partitioned objects, for cross-page validation.
struct PageObjects {
  const html::ArenaTree* tree = nullptr;
  html::NodeId pagelet = html::kInvalidNode;
  std::vector<ObjectSpan> objects;
};

/// \brief Cross-page Stage-3 validation over the pages of one cluster.
///
/// On a detail-page cluster the repeated "objects" found by
/// `PartitionObjects` are field rows whose leading label (Title, Price,
/// ...) is identical on every page; real QA-Objects lead with query
/// answers that never repeat across pages. When at least
/// `stable_fraction_threshold` of the leading tokens are static across
/// `min_pages` pages, each page's object list is collapsed to a single
/// whole-pagelet object (one record per page). Returns true if collapsed.
bool CollapseFieldRowObjects(std::vector<PageObjects>* pages,
                             double stable_fraction_threshold = 0.7,
                             int min_pages = 3);

}  // namespace thor::core

#endif  // THOR_CORE_OBJECT_PARTITION_H_
