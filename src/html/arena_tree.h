#ifndef THOR_HTML_ARENA_TREE_H_
#define THOR_HTML_ARENA_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/html/tag_table.h"
#include "src/html/tag_tree.h"
#include "src/util/arena.h"

namespace thor::html {

/// One node of an ArenaTree. Fixed-size record; variable-size data (content
/// text, path-symbol strings) lives in the tree's arena. Children hang off
/// first_child/next_sibling links in document order, so no per-node vector
/// is ever allocated.
struct ArenaNode {
  NodeId parent = kInvalidNode;
  NodeId first_child = kInvalidNode;
  NodeId last_child = kInvalidNode;
  NodeId next_sibling = kInvalidNode;
  /// Interned tag for tag nodes; -1 for content nodes.
  TagId tag = -1;
  /// Number of direct children (tag and content), like TagTree::Fanout.
  int32_t fanout = 0;
  /// Root has depth 0; assigned at insertion (parents precede children).
  int32_t depth = 0;
  /// Subtree aggregates, filled by FinalizeDerived().
  int32_t subtree_size = 1;
  int32_t content_length = 0;
  /// Page-local id of this node's root->node tag path (tag nodes only).
  /// Two nodes share a path_id iff they have the same tag chain, which is
  /// exactly when their TagTree::PathSymbols strings are equal — so the
  /// extraction hot path compares u32 ids where the legacy path compares
  /// strings.
  uint32_t path_id = 0;
  /// Whitespace-collapsed character data (content nodes); arena-backed.
  const char* text_data = nullptr;
  uint32_t text_size = 0;
  /// Byte offset of this node's start tag ('<') in the parsed input, or
  /// kNoTagOffset for content nodes and for the root, head and body, which
  /// no single start tag creates. Fills what was padding, so the record
  /// stays 56 bytes. Lets a caller that holds the input re-lex one tag's
  /// attributes (see `FindAttributeValues`), which the tree does not store.
  uint32_t tag_offset = kNoTagOffset;

  static constexpr uint32_t kNoTagOffset = UINT32_MAX;

  bool is_tag() const { return tag >= 0; }
  std::string_view text() const { return {text_data, text_size}; }
};

/// \brief The tag tree learning and serving read (the paper's page model,
/// Section 2).
///
/// Semantically a TagTree: same node ids (insertion order), same derived
/// fields, same path/text query results — the differential harness in
/// tests/hotpath_diff_test.cc holds the two structures byte-equal over
/// whole deepweb fleets. Mechanically everything is reused: node records
/// live in a capacity-retaining vector, text and path strings in a bump
/// Arena, and the per-page path-intern table keeps its buckets across
/// Reset(). After a warm-up page, parsing touches the heap zero times.
///
/// Signature building is fused into construction: AddTag maintains the
/// dense per-tag occurrence counts and the distinct-tag list that
/// signature_builder::TagCountVector would otherwise recompute with a
/// preorder walk and a hash map.
///
/// A tree is a value. Serving reads the tree a HotParser refills per page;
/// learning keeps each page's tree as a copy (`ParseArena`), which packs
/// every text and path string into one buffer sized to the page and
/// points into nothing else, so it outlives the parser that built it. A
/// copy is for reading: it carries no path-intern table, so build on it
/// only after Reset(). A moved-from tree may only be reset, assigned or
/// destroyed.
///
/// Not thread-safe to build; a finished tree may be read from any number
/// of threads.
class ArenaTree {
 public:
  ArenaTree() { Reset(); }

  ArenaTree(const ArenaTree& other);
  ArenaTree& operator=(const ArenaTree& other);
  ArenaTree(ArenaTree&&) noexcept = default;
  ArenaTree& operator=(ArenaTree&&) noexcept = default;

  /// Clears to a fresh single-root (<html>) tree, retaining all capacity.
  void Reset();

  NodeId root() const { return 0; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const ArenaNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  Arena& arena() { return arena_; }

  /// Appends a tag node under `parent`: links it as the last child, assigns
  /// depth and interned path id, and bumps the fused tag counts.
  /// `tag_offset` is its start tag's byte offset in the input (kNoTagOffset
  /// for a node no start tag of its own creates).
  NodeId AddTag(NodeId parent, TagId tag,
                uint32_t tag_offset = ArenaNode::kNoTagOffset);

  /// Appends a content leaf under `parent`. `collapsed` must already be
  /// whitespace-collapsed, non-empty, and arena-resident (the parser's
  /// fused decode+collapse writes it there).
  NodeId AddContent(NodeId parent, std::string_view collapsed);

  /// Computes subtree_size / content_length (depth is set at insertion)
  /// and records how many input bytes the builder handled.
  void FinalizeDerived(size_t parsed_bytes);

  /// Length of the input prefix whose tokens built this tree: the whole
  /// input unless ParseOptions::max_nodes stopped the parse, in which case
  /// the offset of the first token left unhandled.
  uint32_t parsed_bytes() const { return parsed_bytes_; }

  int Fanout(NodeId id) const { return node(id).fanout; }
  int Depth(NodeId id) const { return node(id).depth; }
  int SubtreeSize(NodeId id) const { return node(id).subtree_size; }

  /// Direct children of a node, in document order, read off the sibling
  /// links.
  struct ChildRange {
    struct Iterator {
      const ArenaNode* nodes;
      NodeId id;
      NodeId operator*() const { return id; }
      Iterator& operator++() {
        id = nodes[static_cast<size_t>(id)].next_sibling;
        return *this;
      }
      bool operator==(const Iterator&) const = default;
    };
    const ArenaNode* nodes;
    NodeId first;
    Iterator begin() const { return {nodes, first}; }
    Iterator end() const { return {nodes, kInvalidNode}; }
  };
  ChildRange Children(NodeId id) const {
    return {nodes_.data(), node(id).first_child};
  }

  /// Calls `visit(node_id)` for every node of the subtree rooted at `id`,
  /// in preorder (document order), `id` first. Follows the links, so it
  /// never depends on node-id order, which head/body synthesis can break.
  template <typename Visit>
  void ForEachInSubtree(NodeId id, Visit&& visit) const {
    NodeId cur = id;
    while (true) {
      visit(cur);
      const ArenaNode& n = node(cur);
      if (n.first_child != kInvalidNode) {
        cur = n.first_child;
        continue;
      }
      while (cur != id && node(cur).next_sibling == kInvalidNode) {
        cur = node(cur).parent;
      }
      if (cur == id) return;
      cur = node(cur).next_sibling;
    }
  }

  /// Path-symbol string for an interned path id (equals what
  /// TagTree::PathSymbols returns for any node carrying this id).
  std::string_view path(uint32_t path_id) const {
    return paths_[static_cast<size_t>(path_id)];
  }
  uint32_t path_count() const { return static_cast<uint32_t>(paths_.size()); }

  /// TagTree::PathSymbols equivalent (content nodes defer to their parent
  /// chain, exactly like the legacy walk that skips content nodes).
  std::string_view PathSymbols(NodeId id) const;

  /// TagTree::PathString equivalent: "html/body/table[3]"-style address
  /// with 1-based indices printed only among same-tag siblings.
  std::string PathString(NodeId id) const;

  /// TagTree::SubtreeText equivalent, appending into a caller-owned buffer
  /// (space-joined content text in document order). `out` need not be
  /// empty; separators follow the legacy "separator iff out non-empty"
  /// rule, so pass a fresh buffer for byte-parity with SubtreeText.
  void AppendSubtreeText(NodeId id, std::string* out) const;

  /// The members below are `html/tree_read.h`'s templates, shared with
  /// TagTree.
  std::string SubtreeText(NodeId id) const;
  int MaxFanout() const;
  bool IsAncestorOrSelf(NodeId ancestor, NodeId id) const;
  NodeId ResolvePath(std::string_view path) const;

  /// Fused whole-page tag counts: occurrences of `tag` (0 when absent),
  /// equal to signature_builder::TagCountVector(tree).At(tag).
  int32_t TagCountOf(TagId tag) const {
    return static_cast<size_t>(tag) < tag_counts_.size()
               ? tag_counts_[static_cast<size_t>(tag)]
               : 0;
  }
  /// Distinct tags on the page, in first-occurrence order.
  const std::vector<TagId>& distinct_tags() const { return distinct_tags_; }
  /// The dense counts behind TagCountOf, indexed by TagId. A reused tree's
  /// reach the largest id its parser has met; a copy's end at the page's
  /// largest.
  const std::vector<int32_t>& tag_counts() const { return tag_counts_; }

 private:
  uint32_t InternPath(uint32_t parent_path, TagId tag);
  void Link(NodeId parent, NodeId id);
  void CountTag(TagId tag);

  Arena arena_;
  /// A copy's text and path strings, packed into one buffer.
  std::unique_ptr<char[]> packed_;
  std::vector<ArenaNode> nodes_;
  /// Page-local path table: id -> arena-resident symbol string, plus the
  /// (parent_path, tag) -> id transition map that grows it.
  std::vector<std::string_view> paths_;
  std::unordered_map<uint64_t, uint32_t> path_transitions_;
  /// Dense per-tag occurrence counts (indexed by process-wide TagId) and
  /// the list of tags actually present (so Reset zeroes only those).
  std::vector<int32_t> tag_counts_;
  std::vector<TagId> distinct_tags_;
  uint32_t parsed_bytes_ = 0;
};

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_TREE_H_
