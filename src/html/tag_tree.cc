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

int TagTree::MaxFanout() const {
  int best = 0;
  for (const Node& n : nodes_) {
    best = std::max(best, static_cast<int>(n.children.size()));
  }
  return best;
}

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
  std::vector<std::string> parts = Split(std::string(path), '/');
  if (parts.empty()) return kInvalidNode;
  NodeId cur = kInvalidNode;
  for (size_t level = 0; level < parts.size(); ++level) {
    std::string_view part = parts[level];
    int want_index = 0;  // 0 = unindexed (first same-tag match)
    std::string_view name = part;
    size_t bracket = part.find('[');
    if (bracket != std::string_view::npos && part.back() == ']') {
      name = part.substr(0, bracket);
      int parsed = 0;
      for (size_t i = bracket + 1; i + 1 < part.size(); ++i) {
        if (!IsAsciiDigit(part[i])) return kInvalidNode;
        parsed = parsed * 10 + (part[i] - '0');
      }
      want_index = parsed;
    }
    TagId tag = FindTag(name);
    if (tag < 0) return kInvalidNode;
    if (level == 0) {
      if (node(root()).tag != tag) return kInvalidNode;
      cur = root();
      continue;
    }
    NodeId next = kInvalidNode;
    int seen = 0;
    for (NodeId child : node(cur).children) {
      const Node& c = node(child);
      if (c.kind == NodeKind::kTag && c.tag == tag) {
        ++seen;
        if (want_index == 0 || seen == want_index) {
          next = child;
          if (want_index != 0 || seen == 1) break;
        }
      }
    }
    if (next == kInvalidNode) return kInvalidNode;
    cur = next;
  }
  return cur;
}

std::string TagTree::SubtreeText(NodeId id) const {
  std::string out;
  AppendSubtreeText(id, &out);
  return out;
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
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

std::string_view TagTree::AttributeValue(NodeId id,
                                         std::string_view name) const {
  for (const Attribute& attr : node(id).attributes) {
    if (attr.name == name) return attr.value;
  }
  return {};
}

}  // namespace thor::html
