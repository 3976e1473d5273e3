#include "src/html/tag_tree.h"

#include <algorithm>
#include <cassert>

#include "src/html/tree_read.h"
#include "src/util/strings.h"

namespace thor::html {

TagTree::TagTree() {
  Node root;
  root.kind = NodeKind::kTag;
  root.tag = Tag::kHtml;
  nodes_.push_back(std::move(root));
}

NodeId TagTree::AddTag(NodeId parent, TagId tag,
                       std::vector<Attribute> attributes) {
  assert(parent >= 0 && parent < node_count());
  Node n;
  n.kind = NodeKind::kTag;
  n.tag = tag;
  n.attributes = std::move(attributes);
  n.parent = parent;
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

NodeId TagTree::AddContent(NodeId parent, std::string_view text) {
  assert(parent >= 0 && parent < node_count());
  std::string collapsed = CollapseWhitespace(text);
  if (collapsed.empty()) return kInvalidNode;
  Node n;
  n.kind = NodeKind::kContent;
  n.text = std::move(collapsed);
  n.parent = parent;
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

void TagTree::FinalizeDerived() {
  // Nodes are appended parent-before-child, so one forward pass computes
  // depth and one backward pass accumulates subtree aggregates.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.depth = (n.parent == kInvalidNode)
                  ? 0
                  : nodes_[static_cast<size_t>(n.parent)].depth + 1;
    n.subtree_size = 1;
    n.content_length =
        n.kind == NodeKind::kContent ? static_cast<int>(n.text.size()) : 0;
  }
  for (size_t i = nodes_.size(); i-- > 1;) {
    const Node& n = nodes_[i];
    Node& p = nodes_[static_cast<size_t>(n.parent)];
    p.subtree_size += n.subtree_size;
    p.content_length += n.content_length;
  }
}

int TagTree::MaxFanout() const { return html::MaxFanout(*this); }

std::vector<TagId> TagTree::PathTags(NodeId id) const {
  std::vector<TagId> path;
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    if (node(cur).kind == NodeKind::kTag) path.push_back(node(cur).tag);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string TagTree::PathSymbols(NodeId id) const {
  std::string symbols;
  for (TagId tag : PathTags(id)) symbols.push_back(TagPathSymbol(tag));
  return symbols;
}

std::string TagTree::PathString(NodeId id) const {
  return html::PathString(*this, id);
}

NodeId TagTree::ResolvePath(std::string_view path) const {
  return html::ResolvePath(*this, path);
}

std::string TagTree::SubtreeText(NodeId id) const {
  return html::SubtreeText(*this, id);
}

void TagTree::AppendSubtreeText(NodeId id, std::string* out) const {
  ForEachInSubtree(id, [&](NodeId cur) {
    const Node& n = node(cur);
    if (n.kind != NodeKind::kContent) return;
    if (!out->empty()) out->push_back(' ');
    out->append(n.text);
  });
}

std::vector<NodeId> TagTree::SubtreeNodes(NodeId id) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(node(id).subtree_size));
  ForEachInSubtree(id, [&](NodeId cur) { out.push_back(cur); });
  return out;
}

bool TagTree::IsAncestorOrSelf(NodeId ancestor, NodeId id) const {
  return html::IsAncestorOrSelf(*this, ancestor, id);
}

std::string_view TagTree::AttributeValue(NodeId id,
                                         std::string_view name) const {
  for (const Attribute& attr : node(id).attributes) {
    if (attr.name == name) return attr.value;
  }
  return {};
}

}  // namespace thor::html
