#ifndef THOR_CORE_PAGE_TERMS_H_
#define THOR_CORE_PAGE_TERMS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/html/arena_tree.h"

namespace thor::core {

/// \brief The term ids of every content node of a set of pages, from one
/// `text::TermAnalyzer` under the default `text::TermOptions` (the terms
/// cluster ranking and Phase II count).
///
/// Each content node is tokenised once and each distinct token stemmed
/// once, however many callers read the node: RunThor analyses its usable
/// pages once and lets cluster ranking (distinct terms per page) and every
/// cluster's Phase II (terms per common subtree) read the result. Ids are
/// the analyzer's: dense, equal exactly when their terms are.
class PageTerms {
 public:
  explicit PageTerms(const std::vector<const html::ArenaTree*>& trees);

  /// Term ids of content node `id` of page `page`, in text order; empty
  /// for a tag node.
  std::span<const int32_t> NodeTerms(size_t page, html::NodeId id) const {
    const size_t node = node_begin_[page] + static_cast<size_t>(id);
    return std::span<const int32_t>(ids_).subspan(
        term_begin_[node], term_begin_[node + 1] - term_begin_[node]);
  }

  /// Every term id of page `page`, its content nodes in id order.
  std::span<const int32_t> PageTermIds(size_t page) const {
    const size_t first = term_begin_[node_begin_[page]];
    const size_t last = term_begin_[node_begin_[page + 1] - 1];
    return std::span<const int32_t>(ids_).subspan(first, last - first);
  }

  int num_terms() const { return num_terms_; }

 private:
  std::vector<int32_t> ids_;
  /// Node n of page p owns ids_[term_begin_[k], term_begin_[k + 1]) with
  /// k = node_begin_[p] + n; each page has one extra closing entry.
  std::vector<uint32_t> term_begin_;
  std::vector<size_t> node_begin_;
  int num_terms_ = 0;
};

}  // namespace thor::core

#endif  // THOR_CORE_PAGE_TERMS_H_
