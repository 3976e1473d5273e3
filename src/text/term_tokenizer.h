#ifndef THOR_TEXT_TERM_TOKENIZER_H_
#define THOR_TEXT_TERM_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace thor::text {

/// Term extraction knobs for content signatures.
struct TermOptions {
  /// Lowercase and Porter-stem each term (the paper stems content terms
  /// before building term vectors).
  bool stem = true;
  /// Drop very common English function words.
  bool remove_stopwords = true;
  /// Drop terms shorter than this many bytes (after stemming).
  int min_length = 2;
  /// Keep pure-number tokens (prices, counts). The paper's content regions
  /// are full of them, and they discriminate dynamic regions well.
  bool keep_numbers = true;
};

/// True for the ~120 most common English stopwords ("the", "and", ...).
bool IsStopword(std::string_view word);

/// Splits free text into normalized terms: maximal ASCII alphanumeric runs,
/// lowercased, optionally stopword-filtered and stemmed.
std::vector<std::string> ExtractTerms(std::string_view content,
                                      const TermOptions& options = {});

/// Number of *distinct* terms in `content` (cluster-ranking feature).
int CountDistinctTerms(std::string_view content,
                       const TermOptions& options = {});

/// \brief `ExtractTerms` with a memo, returning dense term ids instead of
/// strings.
///
/// Ids start at 0 and are assigned in first-seen order; two ids are equal
/// exactly when their terms are. Each distinct lowercased token is
/// stopword-checked and stemmed once, and a dropped token is remembered as
/// dropped, so a token seen again costs one probe of an open-addressing
/// table, hashed while the token is lowercased. The memo grows with every
/// distinct token seen: scope an analyzer to one call, never to the
/// process. Not thread-safe.
class TermAnalyzer {
 public:
  explicit TermAnalyzer(const TermOptions& options = {});

  /// Appends the id of each term `ExtractTerms(content, options)` returns,
  /// in the same order.
  void AppendTermIds(std::string_view content, std::vector<int32_t>* ids);

  /// Number of distinct terms seen so far; every id is below it.
  int num_terms() const { return static_cast<int>(term_ids_.size()); }

 private:
  // One memoized token: its bytes are keys_[key_begin, key_begin +
  // key_size). A key_size of 0 marks an empty slot (tokens are never
  // empty).
  struct Slot {
    uint64_t hash = 0;
    uint32_t key_begin = 0;
    uint32_t key_size = 0;
    int32_t id = -1;  // term id, or -1 when the options drop the token
  };

  // The memoized id of a lowercased token, normalizing it on first sight.
  int32_t TokenId(std::string_view lowered, bool has_alpha, uint64_t hash);
  void Grow();

  TermOptions options_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  size_t used_ = 0;
  std::string keys_;
  std::string scratch_;  // the current token, lowercased
  // Normalized term -> id; consulted only on a token's first sight.
  std::unordered_map<std::string, int32_t> term_ids_;
};

}  // namespace thor::text

#endif  // THOR_TEXT_TERM_TOKENIZER_H_
