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

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Calls `on_token(lowered, has_alpha, hash)` for each maximal ASCII
// alphanumeric run of `content`, in order: `lowered` is the run lowercased
// into `*buffer` and `hash` its FNV-1a hash, computed in the same pass.
template <typename OnToken>
void ForEachToken(std::string_view content, std::string* buffer,
                  OnToken&& on_token) {
  const char* cur = content.data();
  const char* const end = cur + content.size();
  while (cur < end) {
    if (!IsAsciiAlnum(*cur)) {
      ++cur;
      continue;
    }
    const char* start = cur;
    while (cur < end && IsAsciiAlnum(*cur)) ++cur;
    buffer->resize(static_cast<size_t>(cur - start));
    char* out = buffer->data();
    bool has_alpha = false;
    uint64_t hash = kFnvOffset;
    for (const char* in = start; in < cur; ++in) {
      char c = *in;
      if (IsAsciiAlpha(c)) {
        has_alpha = true;
        c = AsciiToLower(c);
      }
      *out++ = c;
      hash = (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
    }
    on_token(std::string_view(*buffer), has_alpha, hash);
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
  std::string buffer;
  ForEachToken(content, &buffer,
               [&](std::string_view lowered, bool has_alpha, uint64_t) {
                 std::string term(lowered);
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
  ForEachToken(content, &scratch_,
               [&](std::string_view lowered, bool has_alpha, uint64_t hash) {
                 const int32_t id = TokenId(lowered, has_alpha, hash);
                 if (id >= 0) ids->push_back(id);
               });
}

int32_t TermAnalyzer::TokenId(std::string_view lowered, bool has_alpha,
                              uint64_t hash) {
  if ((used_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t at = static_cast<size_t>(hash) & mask;
  for (;; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.key_size == 0) break;
    if (slot.hash == hash && slot.key_size == lowered.size() &&
        std::string_view(keys_).substr(slot.key_begin, slot.key_size) ==
            lowered) {
      return slot.id;
    }
  }
  int32_t id = -1;
  std::string term(lowered);
  if (NormalizeToken(&term, has_alpha, options_)) {
    const int32_t next = static_cast<int32_t>(term_ids_.size());
    id = term_ids_.try_emplace(std::move(term), next).first->second;
  }
  Slot& slot = slots_[at];
  slot.hash = hash;
  slot.key_begin = static_cast<uint32_t>(keys_.size());
  slot.key_size = static_cast<uint32_t>(lowered.size());
  slot.id = id;
  keys_.append(lowered);
  ++used_;
  return id;
}

void TermAnalyzer::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key_size == 0) continue;
    size_t at = static_cast<size_t>(slot.hash) & mask;
    while (slots_[at].key_size != 0) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

}  // namespace thor::text
