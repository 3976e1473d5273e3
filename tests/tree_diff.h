// Differential helpers shared by the tests that hold the arena tree, which
// learning and serving read, to the legacy parser's TagTree, the oracle.
#ifndef THOR_TESTS_TREE_DIFF_H_
#define THOR_TESTS_TREE_DIFF_H_

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/html/arena_tree.h"
#include "src/html/tag_tree.h"

namespace thor::tree_diff {

/// Preorder node ids of an ArenaTree via its child/sibling links (the hot
/// tree has no materialized child vectors to walk).
inline std::vector<html::NodeId> ArenaPreorder(const html::ArenaTree& tree) {
  std::vector<html::NodeId> order;
  tree.ForEachInSubtree(tree.root(),
                        [&](html::NodeId id) { order.push_back(id); });
  return order;
}

/// The two trees agree node by node in preorder: the same node ids (so a
/// node id found on one tree names the same node on the other, which the
/// labels rely on), kinds, tags, texts, paths and derived fields.
/// `with_paths` also compares each tag node's PathSymbols and PathString,
/// which derive from the compared structure but cost a walk per node.
inline void ExpectTreesIdentical(const html::TagTree& legacy,
                                 const html::ArenaTree& hot,
                                 const std::string& context,
                                 bool with_paths = true) {
  SCOPED_TRACE(context);
  std::vector<html::NodeId> legacy_order = legacy.Preorder();
  std::vector<html::NodeId> hot_order = ArenaPreorder(hot);
  ASSERT_EQ(legacy_order.size(), hot_order.size());
  for (size_t i = 0; i < legacy_order.size(); ++i) {
    const html::Node& l = legacy.node(legacy_order[i]);
    const html::ArenaNode& h = hot.node(hot_order[i]);
    SCOPED_TRACE("preorder index " + std::to_string(i));
    ASSERT_EQ(legacy_order[i], hot_order[i]);
    ASSERT_EQ(l.is_tag(), h.is_tag());
    if (l.is_tag()) {
      EXPECT_EQ(l.tag, h.tag);
      if (with_paths) {
        EXPECT_EQ(legacy.PathSymbols(legacy_order[i]), hot.path(h.path_id));
        EXPECT_EQ(legacy.PathString(legacy_order[i]),
                  hot.PathString(hot_order[i]));
      }
    } else {
      EXPECT_EQ(std::string_view(l.text), h.text());
    }
    EXPECT_EQ(l.parent, h.parent);
    EXPECT_EQ(legacy.Fanout(legacy_order[i]), h.fanout);
    EXPECT_EQ(legacy.Depth(legacy_order[i]), h.depth);
    EXPECT_EQ(legacy.SubtreeSize(legacy_order[i]), h.subtree_size);
    EXPECT_EQ(l.content_length, h.content_length);
  }
}

}  // namespace thor::tree_diff

#endif  // THOR_TESTS_TREE_DIFF_H_
