#include "src/html/arena_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/html/tree_read.h"

namespace thor::html {

ArenaTree::ArenaTree(const ArenaTree& other)
    : nodes_(other.nodes_),
      distinct_tags_(other.distinct_tags_),
      parsed_bytes_(other.parsed_bytes_) {
  // A reused tree's counts reach the largest tag id its parser ever met;
  // the copy keeps them only up to this page's largest (TagCountOf reads
  // 0 past the end).
  TagId max_tag = -1;
  for (TagId tag : distinct_tags_) max_tag = std::max(max_tag, tag);
  tag_counts_.assign(other.tag_counts_.begin(),
                     other.tag_counts_.begin() + (max_tag + 1));

  size_t bytes = 0;
  for (const ArenaNode& n : nodes_) bytes += n.text_size;
  for (std::string_view path : other.paths_) bytes += path.size();
  packed_ = std::make_unique_for_overwrite<char[]>(bytes);
  char* out = packed_.get();
  for (ArenaNode& n : nodes_) {
    if (n.text_size == 0) continue;
    std::memcpy(out, n.text_data, n.text_size);
    n.text_data = out;
    out += n.text_size;
  }
  paths_.reserve(other.paths_.size());
  for (std::string_view path : other.paths_) {
    std::memcpy(out, path.data(), path.size());
    paths_.emplace_back(out, path.size());
    out += path.size();
  }
}

ArenaTree& ArenaTree::operator=(const ArenaTree& other) {
  if (this != &other) *this = ArenaTree(other);
  return *this;
}

void ArenaTree::Reset() {
  arena_.Reset();
  packed_.reset();
  nodes_.clear();
  paths_.clear();
  path_transitions_.clear();
  for (TagId tag : distinct_tags_) tag_counts_[static_cast<size_t>(tag)] = 0;
  distinct_tags_.clear();
  parsed_bytes_ = 0;

  // Root <html> node (mirrors TagTree's constructor). Its path is the
  // single html symbol; path id 0 by construction. The symbol lives in
  // static storage, so an empty tree allocates no arena block.
  static const char kRootSymbol = TagPathSymbol(Tag::kHtml);
  paths_.push_back(std::string_view{&kRootSymbol, 1});

  ArenaNode root;
  root.tag = Tag::kHtml;
  root.path_id = 0;
  nodes_.push_back(root);
  CountTag(Tag::kHtml);
}

uint32_t ArenaTree::InternPath(uint32_t parent_path, TagId tag) {
  uint64_t key =
      (uint64_t{parent_path} << 32) | static_cast<uint32_t>(tag);
  auto it = path_transitions_.find(key);
  if (it != path_transitions_.end()) return it->second;
  std::string_view parent = paths_[static_cast<size_t>(parent_path)];
  char* data = static_cast<char*>(arena_.Allocate(parent.size() + 1, 1));
  std::memcpy(data, parent.data(), parent.size());
  data[parent.size()] = TagPathSymbol(tag);
  uint32_t id = static_cast<uint32_t>(paths_.size());
  paths_.push_back(std::string_view{data, parent.size() + 1});
  path_transitions_.emplace(key, id);
  return id;
}

void ArenaTree::Link(NodeId parent, NodeId id) {
  ArenaNode& p = nodes_[static_cast<size_t>(parent)];
  if (p.first_child == kInvalidNode) {
    p.first_child = id;
  } else {
    nodes_[static_cast<size_t>(p.last_child)].next_sibling = id;
  }
  p.last_child = id;
  ++p.fanout;
}

void ArenaTree::CountTag(TagId tag) {
  size_t index = static_cast<size_t>(tag);
  if (index >= tag_counts_.size()) tag_counts_.resize(index + 1, 0);
  if (tag_counts_[index]++ == 0) distinct_tags_.push_back(tag);
}

NodeId ArenaTree::AddTag(NodeId parent, TagId tag, uint32_t tag_offset) {
  assert(parent >= 0 && parent < node_count());
  ArenaNode n;
  n.parent = parent;
  n.tag = tag;
  n.tag_offset = tag_offset;
  n.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  n.path_id = InternPath(nodes_[static_cast<size_t>(parent)].path_id, tag);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  Link(parent, id);
  CountTag(tag);
  return id;
}

NodeId ArenaTree::AddContent(NodeId parent, std::string_view collapsed) {
  assert(parent >= 0 && parent < node_count());
  assert(!collapsed.empty());
  ArenaNode n;
  n.parent = parent;
  n.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  n.text_data = collapsed.data();
  n.text_size = static_cast<uint32_t>(collapsed.size());
  n.content_length = static_cast<int32_t>(collapsed.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  Link(parent, id);
  return id;
}

void ArenaTree::FinalizeDerived(size_t parsed_bytes) {
  parsed_bytes_ = static_cast<uint32_t>(
      std::min<size_t>(parsed_bytes, ArenaNode::kNoTagOffset));
  // Parents precede children (same invariant as TagTree), so one backward
  // pass accumulates subtree aggregates. Depth and per-node content_length
  // were assigned at insertion.
  for (size_t i = nodes_.size(); i-- > 1;) {
    const ArenaNode& n = nodes_[i];
    ArenaNode& p = nodes_[static_cast<size_t>(n.parent)];
    p.subtree_size += n.subtree_size;
    p.content_length += n.content_length;
  }
}

std::string_view ArenaTree::PathSymbols(NodeId id) const {
  const ArenaNode& n = node(id);
  // Content leaves hang off a tag parent; legacy PathTags skips them, so
  // their path equals the parent's.
  uint32_t pid = n.is_tag() ? n.path_id
                            : node(n.parent).path_id;
  return paths_[static_cast<size_t>(pid)];
}

std::string ArenaTree::PathString(NodeId id) const {
  return html::PathString(*this, id);
}

std::string ArenaTree::SubtreeText(NodeId id) const {
  return html::SubtreeText(*this, id);
}

int ArenaTree::MaxFanout() const { return html::MaxFanout(*this); }

bool ArenaTree::IsAncestorOrSelf(NodeId ancestor, NodeId id) const {
  return html::IsAncestorOrSelf(*this, ancestor, id);
}

NodeId ArenaTree::ResolvePath(std::string_view path) const {
  return html::ResolvePath(*this, path);
}

void ArenaTree::AppendSubtreeText(NodeId id, std::string* out) const {
  ForEachInSubtree(id, [&](NodeId cur) {
    const ArenaNode& n = node(cur);
    if (n.is_tag()) return;
    if (!out->empty()) out->push_back(' ');
    out->append(n.text_data, n.text_size);
  });
}

}  // namespace thor::html
