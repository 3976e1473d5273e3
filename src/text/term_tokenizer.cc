#include "src/text/term_tokenizer.h"

#include <algorithm>
#include <unordered_set>

#include "src/text/porter_stemmer.h"
#include "src/util/strings.h"

namespace thor::text {

namespace {

const std::unordered_set<std::string_view>& StopwordSet() {
  static const auto& set = *new std::unordered_set<std::string_view>{
      "a",     "about", "above", "after", "again",  "all",   "also",  "am",
      "an",    "and",   "any",   "are",   "as",     "at",    "be",    "been",
      "before","being", "below", "between","both",  "but",   "by",    "can",
      "could", "did",   "do",    "does",  "doing",  "down",  "during","each",
      "few",   "for",   "from",  "further","had",   "has",   "have",  "having",
      "he",    "her",   "here",  "hers",  "him",    "his",   "how",   "i",
      "if",    "in",    "into",  "is",    "it",     "its",   "just",  "me",
      "more",  "most",  "my",    "no",    "nor",    "not",   "now",   "of",
      "off",   "on",    "once",  "only",  "or",     "other", "our",   "ours",
      "out",   "over",  "own",   "same",  "she",    "so",    "some",  "such",
      "than",  "that",  "the",   "their", "them",   "then",  "there", "these",
      "they",  "this",  "those", "through","to",    "too",   "under", "until",
      "up",    "very",  "was",   "we",    "were",   "what",  "when",  "where",
      "which", "while", "who",   "whom",  "why",    "will",  "with",  "would",
      "you",   "your",  "yours",
  };
  return set;
}

// Calls `on_token(lowered, has_alpha)` for each maximal ASCII alphanumeric
// run of `content`, in order, with the run lowercased.
template <typename OnToken>
void ForEachToken(std::string_view content, OnToken&& on_token) {
  size_t i = 0;
  while (i < content.size()) {
    if (!IsAsciiAlnum(content[i])) {
      ++i;
      continue;
    }
    size_t start = i;
    bool has_alpha = false;
    while (i < content.size() && IsAsciiAlnum(content[i])) {
      if (IsAsciiAlpha(content[i])) has_alpha = true;
      ++i;
    }
    on_token(AsciiLower(content.substr(start, i - start)), has_alpha);
  }
}

// Turns a lowercased token into its term in place. Returns false when the
// options drop the token.
bool NormalizeToken(std::string* term, bool has_alpha,
                    const TermOptions& options) {
  if (!has_alpha && !options.keep_numbers) return false;
  if (options.remove_stopwords && IsStopword(*term)) return false;
  if (options.stem && has_alpha) *term = PorterStem(*term);
  return static_cast<int>(term->size()) >= options.min_length;
}

}  // namespace

bool IsStopword(std::string_view word) {
  return StopwordSet().count(word) > 0;
}

std::vector<std::string> ExtractTerms(std::string_view content,
                                      const TermOptions& options) {
  std::vector<std::string> terms;
  ForEachToken(content, [&](std::string term, bool has_alpha) {
    if (NormalizeToken(&term, has_alpha, options)) {
      terms.push_back(std::move(term));
    }
  });
  return terms;
}

int CountDistinctTerms(std::string_view content, const TermOptions& options) {
  std::vector<std::string> terms = ExtractTerms(content, options);
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return static_cast<int>(terms.size());
}

TermAnalyzer::TermAnalyzer(const TermOptions& options) : options_(options) {}

void TermAnalyzer::AppendTermIds(std::string_view content,
                                 std::vector<int32_t>* ids) {
  ForEachToken(content, [&](std::string lowered, bool has_alpha) {
    auto it = token_ids_.find(lowered);
    if (it == token_ids_.end()) {
      int32_t id = -1;
      std::string term = lowered;
      if (NormalizeToken(&term, has_alpha, options_)) {
        int32_t next = static_cast<int32_t>(term_ids_.size());
        id = term_ids_.try_emplace(std::move(term), next).first->second;
      }
      it = token_ids_.emplace(std::move(lowered), id).first;
    }
    if (it->second >= 0) ids->push_back(it->second);
  });
}

}  // namespace thor::text
