#ifndef THOR_TESTS_ORACLE_TAG_TREE_H_
#define THOR_TESTS_ORACLE_TAG_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/html/tag_table.h"
#include "src/html/tokenizer.h"
#include "src/html/tree_read.h"

namespace thor::html {

/// The paper's tag-tree node kinds: tag nodes (labeled by the start-tag
/// name) and content nodes (leaves labeled by their character data).
enum class NodeKind : uint8_t { kTag, kContent };

/// One node of a tag tree. Plain data; owned by the TagTree arena.
struct Node {
  NodeKind kind = NodeKind::kTag;
  /// Interned tag for kTag nodes; -1 for content nodes.
  TagId tag = -1;
  /// Whitespace-collapsed character data for kContent nodes.
  std::string text;
  /// Start-tag attributes for kTag nodes.
  std::vector<Attribute> attributes;
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  /// Root has depth 0. Filled by FinalizeDerived().
  int depth = 0;
  /// Number of nodes in the subtree rooted here, including this node.
  /// Filled by FinalizeDerived().
  int subtree_size = 1;
  /// Total bytes of content text within the subtree. Filled by
  /// FinalizeDerived().
  int content_length = 0;

  bool is_tag() const { return kind == NodeKind::kTag; }
};

/// \brief The test oracle's tag tree: what the legacy two-phase parser
/// builds.
///
/// Built top-down via AddTag/AddContent, then FinalizeDerived() computes
/// depth, subtree sizes and content lengths. Learning and serving read
/// `ArenaTree`; this tree, with its materialized attributes and child
/// vectors, is built by `ParseHtml` for the tests that hold HotParser to
/// it node by node and for the denominator of bench_micro's ratio gate.
/// It lives in the test-only `thor_oracle` library, which no daemon
/// links. The queries it shares with ArenaTree are `html/tree_read.h`'s
/// templates.
class TagTree {
 public:
  TagTree();

  TagTree(const TagTree&) = default;
  TagTree& operator=(const TagTree&) = default;
  TagTree(TagTree&&) = default;
  TagTree& operator=(TagTree&&) = default;

  /// Root tag node (created by the constructor as <html> unless the parser
  /// replaces it).
  NodeId root() const { return 0; }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& mutable_node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }

  /// Appends a new tag node under `parent` and returns its id.
  NodeId AddTag(NodeId parent, TagId tag,
                std::vector<Attribute> attributes = {});

  /// Appends a content leaf under `parent`. Text is whitespace-collapsed;
  /// nothing is added (and kInvalidNode returned) if it collapses to empty.
  NodeId AddContent(NodeId parent, std::string_view text);

  /// Computes depth / subtree_size / content_length for every node.
  /// Must be called after construction and before structural queries.
  void FinalizeDerived();

  int Fanout(NodeId id) const {
    return static_cast<int>(node(id).children.size());
  }
  int Depth(NodeId id) const { return node(id).depth; }
  int SubtreeSize(NodeId id) const { return node(id).subtree_size; }

  /// Direct children of `id`, in document order.
  const std::vector<NodeId>& Children(NodeId id) const {
    return node(id).children;
  }

  /// Calls `visit(node_id)` for every node of the subtree rooted at `id`,
  /// in preorder (document order), `id` first.
  template <typename Visit>
  void ForEachInSubtree(NodeId id, Visit&& visit) const {
    std::vector<NodeId> stack = {id};
    while (!stack.empty()) {
      NodeId cur = stack.back();
      stack.pop_back();
      visit(cur);
      const std::vector<NodeId>& children = node(cur).children;
      stack.insert(stack.end(), children.rbegin(), children.rend());
    }
  }

  /// Largest fanout of any node in the tree (cluster-ranking feature).
  int MaxFanout() const;

  /// Tag ids on the path root -> id, for tag nodes only (a content node
  /// contributes its parent chain). Root first.
  std::vector<TagId> PathTags(NodeId id) const;

  /// One `TagPathSymbol` letter per path element, e.g. "abm" for
  /// html/body/table — the paper's fixed-length-q simplification (q = 1)
  /// used by the subtree shape distance.
  std::string PathSymbols(NodeId id) const;

  /// Human-readable XPath-style address, e.g. "html/body/table[3]".
  /// Sibling indices are 1-based among same-tag siblings and printed only
  /// when the node has same-tag siblings.
  std::string PathString(NodeId id) const;

  /// Resolves a PathString produced by this tree back to a node, or
  /// kInvalidNode if no such node exists.
  NodeId ResolvePath(std::string_view path) const;

  /// Concatenation of all content-node text in the subtree, space-joined in
  /// document order.
  std::string SubtreeText(NodeId id) const;

  /// SubtreeText appended to `out`, with a space before each content text
  /// whenever `out` is non-empty.
  void AppendSubtreeText(NodeId id, std::string* out) const;

  /// All node ids in the subtree rooted at `id`, preorder, including `id`.
  std::vector<NodeId> SubtreeNodes(NodeId id) const;

  /// All node ids in preorder (root first).
  std::vector<NodeId> Preorder() const { return SubtreeNodes(root()); }

  /// True if `ancestor` is `id` or a proper ancestor of `id`.
  bool IsAncestorOrSelf(NodeId ancestor, NodeId id) const;

  /// Value of attribute `name` on tag node `id`, or empty string.
  std::string_view AttributeValue(NodeId id, std::string_view name) const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace thor::html

#endif  // THOR_TESTS_ORACLE_TAG_TREE_H_
