#ifndef THOR_TREEDIST_ZHANG_SHASHA_H_
#define THOR_TREEDIST_ZHANG_SHASHA_H_

#include <vector>

#include "src/html/tree_read.h"

namespace thor::treedist {

/// \brief Postorder representation of an ordered labeled tree, precomputed
/// for the Zhang-Shasha algorithm.
///
/// Labels are interned tag ids; content nodes collapse to a single shared
/// label, matching how structural tree-edit similarity was used by the
/// paper's comparison baseline [23].
struct OrderedTree {
  /// Label per node, postorder.
  std::vector<int> labels;
  /// Index (postorder) of the leftmost leaf descendant of each node.
  std::vector<int> leftmost_leaf;
  /// LR-keyroots, ascending.
  std::vector<int> keyroots;

  int size() const { return static_cast<int>(labels.size()); }

  /// Builds from the subtree of `tree` rooted at `root` (either tag tree:
  /// written once over `html::ReadableTree`).
  template <html::ReadableTree Tree>
  static OrderedTree FromTagTree(const Tree& tree, html::NodeId root) {
    OrderedTree out;
    int leftmost = -1;
    out.AppendPostorder(tree, root, &leftmost);
    out.ComputeKeyroots();
    return out;
  }

 private:
  static constexpr int kContentLabel = -2;

  template <html::ReadableTree Tree>
  void AppendPostorder(const Tree& tree, html::NodeId node,
                       int* leftmost_out) {
    int my_leftmost = -1;
    for (html::NodeId child : tree.Children(node)) {
      int child_leftmost = -1;
      AppendPostorder(tree, child, &child_leftmost);
      if (my_leftmost == -1) my_leftmost = child_leftmost;
    }
    const int my_index = size();
    if (my_leftmost == -1) my_leftmost = my_index;
    labels.push_back(tree.node(node).is_tag() ? tree.node(node).tag
                                              : kContentLabel);
    leftmost_leaf.push_back(my_leftmost);
    *leftmost_out = my_leftmost;
  }

  void ComputeKeyroots();
};

/// Zhang-Shasha ordered tree edit distance with unit insert/delete/relabel
/// costs. O(|T1| * |T2| * min-depth products) time — the few-orders-of-
/// magnitude cost gap vs. tag signatures that the paper reports is exactly
/// what bench_treeedit_vs_tag measures.
int TreeEditDistance(const OrderedTree& t1, const OrderedTree& t2);

/// Distance normalized by max node count, in [0, 1].
double NormalizedTreeEditDistance(const OrderedTree& t1,
                                  const OrderedTree& t2);

}  // namespace thor::treedist

#endif  // THOR_TREEDIST_ZHANG_SHASHA_H_
