#include "src/core/page_terms.h"

#include "src/text/term_tokenizer.h"

namespace thor::core {

PageTerms::PageTerms(const std::vector<const html::ArenaTree*>& trees) {
  text::TermAnalyzer analyzer;
  size_t entries = 0;
  for (const html::ArenaTree* tree : trees) {
    entries += static_cast<size_t>(tree->node_count()) + 1;
  }
  term_begin_.reserve(entries);
  node_begin_.reserve(trees.size() + 1);
  for (const html::ArenaTree* tree : trees) {
    node_begin_.push_back(term_begin_.size());
    for (html::NodeId id = 0; id < tree->node_count(); ++id) {
      term_begin_.push_back(static_cast<uint32_t>(ids_.size()));
      const html::ArenaNode& n = tree->node(id);
      if (!n.is_tag()) analyzer.AppendTermIds(n.text(), &ids_);
    }
    term_begin_.push_back(static_cast<uint32_t>(ids_.size()));
  }
  node_begin_.push_back(term_begin_.size());
  num_terms_ = analyzer.num_terms();
}

}  // namespace thor::core
