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
/// `TagTree` (learning) and `ArenaTree` (serving) each implement every
/// member natively — a child vector against sibling links, a stack walk
/// against a link walk — so a rule instantiated on either tree makes no
/// virtual call.
template <typename Tree>
concept ReadableTree = requires(const Tree& tree, NodeId id,
                                void (*visit)(NodeId), std::string* text) {
  { tree.root() } -> std::convertible_to<NodeId>;
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

}  // namespace thor::html

#endif  // THOR_HTML_TREE_READ_H_
