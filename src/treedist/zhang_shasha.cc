#include "src/treedist/zhang_shasha.h"

#include <algorithm>

namespace thor::treedist {

void OrderedTree::ComputeKeyroots() {
  // keyroots: nodes with no parent sharing their leftmost leaf; i.e. the
  // largest node index for each distinct leftmost-leaf value.
  std::vector<int> last_with_lml;
  for (int i = 0; i < size(); ++i) {
    int lml = leftmost_leaf[static_cast<size_t>(i)];
    if (lml >= static_cast<int>(last_with_lml.size())) {
      last_with_lml.resize(static_cast<size_t>(lml) + 1, -1);
    }
    last_with_lml[static_cast<size_t>(lml)] = i;
  }
  for (int idx : last_with_lml) {
    if (idx >= 0) keyroots.push_back(idx);
  }
  std::sort(keyroots.begin(), keyroots.end());
}

int TreeEditDistance(const OrderedTree& t1, const OrderedTree& t2) {
  const int n = t1.size();
  const int m = t2.size();
  if (n == 0) return m;
  if (m == 0) return n;

  std::vector<std::vector<int>> treedist(
      static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(m), 0));
  // forestdist is reused per keyroot pair; sized (n+1) x (m+1).
  std::vector<std::vector<int>> fd(
      static_cast<size_t>(n) + 1,
      std::vector<int>(static_cast<size_t>(m) + 1, 0));

  for (int kr1 : t1.keyroots) {
    for (int kr2 : t2.keyroots) {
      const int l1 = t1.leftmost_leaf[static_cast<size_t>(kr1)];
      const int l2 = t2.leftmost_leaf[static_cast<size_t>(kr2)];
      // forest indices are offsets: fd[di][dj] covers nodes
      // l1..l1+di-1 and l2..l2+dj-1.
      const int rows = kr1 - l1 + 1;
      const int cols = kr2 - l2 + 1;
      fd[0][0] = 0;
      for (int di = 1; di <= rows; ++di) {
        fd[static_cast<size_t>(di)][0] = fd[static_cast<size_t>(di - 1)][0] + 1;
      }
      for (int dj = 1; dj <= cols; ++dj) {
        fd[0][static_cast<size_t>(dj)] = fd[0][static_cast<size_t>(dj - 1)] + 1;
      }
      for (int di = 1; di <= rows; ++di) {
        const int i = l1 + di - 1;
        for (int dj = 1; dj <= cols; ++dj) {
          const int j = l2 + dj - 1;
          if (t1.leftmost_leaf[static_cast<size_t>(i)] == l1 &&
              t2.leftmost_leaf[static_cast<size_t>(j)] == l2) {
            int relabel = (t1.labels[static_cast<size_t>(i)] ==
                           t2.labels[static_cast<size_t>(j)])
                              ? 0
                              : 1;
            fd[static_cast<size_t>(di)][static_cast<size_t>(dj)] = std::min(
                {fd[static_cast<size_t>(di - 1)][static_cast<size_t>(dj)] + 1,
                 fd[static_cast<size_t>(di)][static_cast<size_t>(dj - 1)] + 1,
                 fd[static_cast<size_t>(di - 1)][static_cast<size_t>(dj - 1)] +
                     relabel});
            treedist[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                fd[static_cast<size_t>(di)][static_cast<size_t>(dj)];
          } else {
            const int fi = t1.leftmost_leaf[static_cast<size_t>(i)] - l1;
            const int fj = t2.leftmost_leaf[static_cast<size_t>(j)] - l2;
            fd[static_cast<size_t>(di)][static_cast<size_t>(dj)] = std::min(
                {fd[static_cast<size_t>(di - 1)][static_cast<size_t>(dj)] + 1,
                 fd[static_cast<size_t>(di)][static_cast<size_t>(dj - 1)] + 1,
                 fd[static_cast<size_t>(fi)][static_cast<size_t>(fj)] +
                     treedist[static_cast<size_t>(i)][static_cast<size_t>(j)]});
          }
        }
      }
    }
  }
  return treedist[static_cast<size_t>(n - 1)][static_cast<size_t>(m - 1)];
}

double NormalizedTreeEditDistance(const OrderedTree& t1,
                                  const OrderedTree& t2) {
  int larger = std::max(t1.size(), t2.size());
  if (larger == 0) return 0.0;
  return static_cast<double>(TreeEditDistance(t1, t2)) / larger;
}

}  // namespace thor::treedist
