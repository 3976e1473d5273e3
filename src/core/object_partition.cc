#include "src/core/object_partition.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/core/common_subtrees.h"

namespace thor::core {

namespace {

// Tag children of the pagelet root that carry content (separators like
// <hr> or empty spacer cells are not object roots).
std::vector<html::NodeId> ContentChildren(const html::TagTree& tree,
                                          html::NodeId pagelet) {
  std::vector<html::NodeId> children;
  for (html::NodeId child : tree.node(pagelet).children) {
    const html::Node& c = tree.node(child);
    if (c.kind == html::NodeKind::kTag && c.content_length > 0) {
      children.push_back(child);
    }
  }
  return children;
}

// Tries to read the child tag sequence as (t1..tp)^m with m >= min_objects.
// A trailing partial period is tolerated (truncated result lists). Returns
// m, or 0 if the period does not fit.
int MatchPeriod(const std::vector<html::TagId>& tags, int period,
                int min_objects) {
  if (period <= 0 || static_cast<int>(tags.size()) < period * min_objects) {
    return 0;
  }
  for (size_t i = static_cast<size_t>(period); i < tags.size(); ++i) {
    if (tags[i] != tags[i - static_cast<size_t>(period)]) return 0;
  }
  return static_cast<int>(tags.size()) / period;
}

// The text of SubtreeText(node) before its first space, without building
// that text. Content nodes hold whitespace-collapsed text and SubtreeText
// joins the non-empty ones with one space, so this is the first non-empty
// content node in preorder, up to its first space.
std::string_view FirstToken(const html::TagTree& tree, html::NodeId node) {
  std::vector<html::NodeId> stack = {node};
  while (!stack.empty()) {
    const html::Node& n = tree.node(stack.back());
    stack.pop_back();
    if (n.kind == html::NodeKind::kContent) {
      if (n.text.empty()) continue;
      std::string_view text = n.text;
      return text.substr(0, text.find(' '));
    }
    stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
  }
  return {};
}

}  // namespace

std::vector<ObjectSpan> PartitionObjects(
    const html::TagTree& tree, html::NodeId pagelet,
    const std::vector<html::NodeId>& hints,
    const ObjectPartitionOptions& options) {
  std::vector<ObjectSpan> objects;
  if (pagelet == html::kInvalidNode) return objects;
  std::vector<html::NodeId> children = ContentChildren(tree, pagelet);

  // 1. Exact repeated tag-period detection. Periods are tried shortest
  // first so <tr><tr>... is period 1, <dt><dd><dt><dd> is period 2.
  std::vector<html::TagId> tags;
  tags.reserve(children.size());
  for (html::NodeId child : children) tags.push_back(tree.node(child).tag);
  for (int period = 1; period <= options.max_period; ++period) {
    int repeats = MatchPeriod(tags, period, options.min_objects);
    if (repeats < options.min_objects) continue;
    // Require the period to be a genuine repetition, not an unrelated
    // sequence that happens to tile (all-same-tag always tiles at 1).
    for (size_t start = 0; start + 1 <= children.size();
         start += static_cast<size_t>(period)) {
      ObjectSpan span;
      for (size_t off = 0;
           off < static_cast<size_t>(period) &&
           start + off < children.size();
           ++off) {
        span.parts.push_back(children[start + off]);
      }
      objects.push_back(std::move(span));
    }
    return objects;
  }

  // 2. Shape-similarity grouping: find the largest group of mutually
  // similar children; if it repeats enough, its members are the objects.
  if (static_cast<int>(children.size()) >= options.min_objects) {
    std::vector<ShapeQuad> quads;
    quads.reserve(children.size());
    for (html::NodeId child : children) {
      quads.push_back(MakeShapeQuad(tree, child));
    }
    // Seed order: Phase-II hints that are direct children first.
    std::vector<size_t> seed_order;
    for (html::NodeId hint : hints) {
      for (size_t i = 0; i < children.size(); ++i) {
        if (children[i] == hint) seed_order.push_back(i);
      }
    }
    for (size_t i = 0; i < children.size(); ++i) seed_order.push_back(i);

    std::vector<size_t> best_group;
    for (size_t seed : seed_order) {
      std::vector<size_t> group;
      for (size_t i = 0; i < children.size(); ++i) {
        if (ShapeDistance(quads[seed], quads[i]) <=
            options.shape_distance_threshold) {
          group.push_back(i);
        }
      }
      if (group.size() > best_group.size()) best_group = std::move(group);
    }
    if (static_cast<int>(best_group.size()) >= options.min_objects) {
      for (size_t index : best_group) {
        ObjectSpan span;
        span.parts.push_back(children[index]);
        objects.push_back(std::move(span));
      }
      return objects;
    }
  }

  // 3. No repetition: the pagelet is one object (single-match detail).
  ObjectSpan whole;
  whole.parts.push_back(pagelet);
  objects.push_back(std::move(whole));
  return objects;
}

bool CollapseFieldRowObjects(std::vector<PageObjects>* pages,
                             double stable_fraction_threshold,
                             int min_pages) {
  if (static_cast<int>(pages->size()) < min_pages) return false;
  // Each object's leading token, per page with at least two objects (empty
  // for the other pages).
  std::vector<std::vector<std::string_view>> tokens(pages->size());
  std::unordered_map<std::string_view, int> token_page_counts;
  int pages_with_objects = 0;
  for (size_t p = 0; p < pages->size(); ++p) {
    const PageObjects& page = (*pages)[p];
    if (page.objects.size() < 2) continue;
    ++pages_with_objects;
    std::unordered_set<std::string_view> seen_on_page;
    for (const ObjectSpan& span : page.objects) {
      std::string_view token = FirstToken(*page.tree, span.root());
      tokens[p].push_back(token);
      if (!token.empty()) seen_on_page.insert(token);
    }
    for (std::string_view token : seen_on_page) ++token_page_counts[token];
  }
  if (pages_with_objects < min_pages) return false;
  double stable_fraction = 0.0;
  int checked = 0;
  for (const std::vector<std::string_view>& page_tokens : tokens) {
    if (page_tokens.empty()) continue;
    int stable = 0;
    for (std::string_view token : page_tokens) {
      auto it = token_page_counts.find(token);
      // A token is "static" when it leads an object on >= 80% of pages.
      if (it != token_page_counts.end() &&
          it->second * 10 >= pages_with_objects * 8) {
        ++stable;
      }
    }
    stable_fraction += static_cast<double>(stable) / page_tokens.size();
    ++checked;
  }
  stable_fraction /= checked;
  if (stable_fraction < stable_fraction_threshold) return false;
  for (PageObjects& page : *pages) {
    ObjectSpan whole;
    whole.parts.push_back(page.pagelet);
    page.objects.assign(1, std::move(whole));
  }
  return true;
}

std::vector<std::string> ObjectTexts(const html::TagTree& tree,
                                     const std::vector<ObjectSpan>& objects) {
  std::vector<std::string> texts;
  texts.reserve(objects.size());
  for (const ObjectSpan& span : objects) {
    std::string text;
    for (html::NodeId part : span.parts) {
      std::string part_text = tree.SubtreeText(part);
      if (!text.empty() && !part_text.empty()) text.push_back(' ');
      text.append(part_text);
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

}  // namespace thor::core
