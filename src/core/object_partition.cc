#include "src/core/object_partition.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace thor::core {

namespace {

// The text of SubtreeText(node) before its first space, without building
// that text. Content nodes hold whitespace-collapsed, never-empty text and
// SubtreeText joins them with one space, so this is the first content node
// in preorder, up to its first space.
std::string_view FirstToken(const html::ArenaTree& tree, html::NodeId node) {
  std::string_view first;
  bool found = false;
  tree.ForEachInSubtree(node, [&](html::NodeId id) {
    if (found || tree.node(id).is_tag()) return;
    first = tree.node(id).text();
    found = true;
  });
  return first.substr(0, first.find(' '));
}

}  // namespace

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

}  // namespace thor::core
