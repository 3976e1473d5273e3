#ifndef THOR_HTML_TREE_READ_H_
#define THOR_HTML_TREE_READ_H_

#include <algorithm>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "src/html/tag_table.h"
#include "src/html/tag_tree.h"

namespace thor::html {

/// \brief The read-only tree interface the extraction rules are written
/// against, once, as templates.
///
/// `ArenaTree` (learning and serving) and `TagTree` (the legacy parser's
/// tree, kept as the differential oracle) each implement every member
/// natively — sibling links against a child vector, a link walk against a
/// stack walk — so a rule instantiated on either tree makes no virtual
/// call.
template <typename Tree>
concept ReadableTree = requires(const Tree& tree, NodeId id,
                                void (*visit)(NodeId), std::string* text) {
  { tree.root() } -> std::convertible_to<NodeId>;
  { tree.node_count() } -> std::convertible_to<int>;
  { tree.node(id).is_tag() } -> std::convertible_to<bool>;
  { tree.node(id).tag } -> std::convertible_to<TagId>;
  { tree.node(id).parent } -> std::convertible_to<NodeId>;
  { tree.node(id).depth } -> std::convertible_to<int>;
  { tree.node(id).subtree_size } -> std::convertible_to<int>;
  { tree.node(id).content_length } -> std::convertible_to<int>;
  { tree.Fanout(id) } -> std::convertible_to<int>;
  { tree.Depth(id) } -> std::convertible_to<int>;
  { tree.SubtreeSize(id) } -> std::convertible_to<int>;
  // Direct children in document order, as a range a loop may break out of.
  { *tree.Children(id).begin() } -> std::convertible_to<NodeId>;
  // Preorder (document-order) walk of the subtree rooted at `id`.
  tree.ForEachInSubtree(id, visit);
  { tree.PathSymbols(id) } -> std::convertible_to<std::string_view>;
  tree.AppendSubtreeText(id, text);
};

/// XPath-style address of `id`, e.g. "html/body/table[3]": the tag names
/// on the root -> id chain (content nodes contribute their parent chain),
/// each with its 1-based index among same-tag siblings, printed only when
/// it has same-tag siblings. `TagTree::PathString` and
/// `ArenaTree::PathString` both return this.
template <ReadableTree Tree>
std::string PathString(const Tree& tree, NodeId id) {
  std::vector<NodeId> chain;
  for (NodeId cur = id; cur != kInvalidNode; cur = tree.node(cur).parent) {
    if (tree.node(cur).is_tag()) chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  std::string out;
  for (NodeId n : chain) {
    if (!out.empty()) out.push_back('/');
    const TagId tag = tree.node(n).tag;
    out.append(TagName(tag));
    NodeId parent = tree.node(n).parent;
    if (parent == kInvalidNode) continue;
    int same_tag = 0;
    int index = 0;
    for (NodeId sibling : tree.Children(parent)) {
      if (tree.node(sibling).is_tag() && tree.node(sibling).tag == tag) {
        ++same_tag;
        if (sibling == n) index = same_tag;
      }
    }
    if (same_tag > 1) {
      out.push_back('[');
      out.append(std::to_string(index));
      out.push_back(']');
    }
  }
  return out;
}

/// Concatenation of all content-node text in the subtree of `id`,
/// space-joined in document order.
template <ReadableTree Tree>
std::string SubtreeText(const Tree& tree, NodeId id) {
  std::string out;
  tree.AppendSubtreeText(id, &out);
  return out;
}

/// Largest fanout of any node in the tree (cluster-ranking feature).
template <ReadableTree Tree>
int MaxFanout(const Tree& tree) {
  int best = 0;
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    best = std::max(best, tree.Fanout(id));
  }
  return best;
}

/// True if `ancestor` is `id` or a proper ancestor of `id`.
template <ReadableTree Tree>
bool IsAncestorOrSelf(const Tree& tree, NodeId ancestor, NodeId id) {
  for (NodeId cur = id; cur != kInvalidNode; cur = tree.node(cur).parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

/// Resolves a `PathString` address back to a node, or kInvalidNode if no
/// such node exists. An unindexed step takes the first same-tag child.
template <ReadableTree Tree>
NodeId ResolvePath(const Tree& tree, std::string_view path) {
  if (path.empty()) return kInvalidNode;
  NodeId cur = kInvalidNode;
  bool first_step = true;
  while (true) {
    const size_t slash = path.find('/');
    std::string_view part = path.substr(0, slash);
    int want_index = 0;  // 0 = unindexed (first same-tag match)
    std::string_view name = part;
    const size_t bracket = part.find('[');
    if (bracket != std::string_view::npos && part.back() == ']') {
      name = part.substr(0, bracket);
      for (size_t i = bracket + 1; i + 1 < part.size(); ++i) {
        if (part[i] < '0' || part[i] > '9') return kInvalidNode;
        want_index = want_index * 10 + (part[i] - '0');
      }
    }
    const TagId tag = FindTag(name);
    if (tag < 0) return kInvalidNode;
    if (first_step) {
      if (tree.node(tree.root()).tag != tag) return kInvalidNode;
      cur = tree.root();
      first_step = false;
    } else {
      NodeId next = kInvalidNode;
      int seen = 0;
      for (NodeId child : tree.Children(cur)) {
        if (!tree.node(child).is_tag() || tree.node(child).tag != tag) {
          continue;
        }
        ++seen;
        if (want_index == 0 || seen == want_index) {
          next = child;
          break;
        }
      }
      if (next == kInvalidNode) return kInvalidNode;
      cur = next;
    }
    if (slash == std::string_view::npos) return cur;
    path.remove_prefix(slash + 1);
  }
}

}  // namespace thor::html

#endif  // THOR_HTML_TREE_READ_H_
