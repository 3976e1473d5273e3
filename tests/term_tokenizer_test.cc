#include "src/text/term_tokenizer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace thor::text {
namespace {

TEST(TermTokenizerTest, BasicSplitLowercaseStem) {
  auto terms = ExtractTerms("Running Dogs barked");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "run");
  EXPECT_EQ(terms[1], "dog");
  EXPECT_EQ(terms[2], "bark");
}

TEST(TermTokenizerTest, StopwordsRemoved) {
  auto terms = ExtractTerms("the cat and the hat");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0], "cat");
  EXPECT_EQ(terms[1], "hat");
}

TEST(TermTokenizerTest, StopwordsKeptWhenDisabled) {
  TermOptions options;
  options.remove_stopwords = false;
  options.stem = false;
  auto terms = ExtractTerms("the cat", options);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0], "the");
  EXPECT_EQ(terms[1], "cat");
}

TEST(TermTokenizerTest, NumbersKeptByDefault) {
  auto terms = ExtractTerms("price 1299 dollars");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[1], "1299");
}

TEST(TermTokenizerTest, NumbersDroppedWhenDisabled) {
  TermOptions options;
  options.keep_numbers = false;
  auto terms = ExtractTerms("price 1299 dollars", options);
  ASSERT_EQ(terms.size(), 2u);
}

TEST(TermTokenizerTest, MixedAlnumTokensKept) {
  auto terms = ExtractTerms("model x300b works");
  EXPECT_EQ(terms[1], "x300b");
}

TEST(TermTokenizerTest, PunctuationSeparates) {
  auto terms = ExtractTerms("red,green;blue");
  ASSERT_EQ(terms.size(), 3u);
}

TEST(TermTokenizerTest, MinLengthFilters) {
  TermOptions options;
  options.min_length = 4;
  options.stem = false;
  auto terms = ExtractTerms("cat hippopotamus ox", options);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0], "hippopotamus");
}

TEST(TermTokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(ExtractTerms("").empty());
  EXPECT_TRUE(ExtractTerms("!!! --- ???").empty());
}

TEST(TermTokenizerTest, IsStopword) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_TRUE(IsStopword("of"));
  EXPECT_FALSE(IsStopword("table"));
  EXPECT_FALSE(IsStopword(""));
}

TEST(TermTokenizerTest, CountDistinctTerms) {
  EXPECT_EQ(CountDistinctTerms("cat dog cat bird dog cat"), 3);
  EXPECT_EQ(CountDistinctTerms(""), 0);
  // Stemming merges: "connect", "connected", "connection" -> 1.
  EXPECT_EQ(CountDistinctTerms("connect connected connection"), 1);
}

TEST(TermTokenizerTest, StemmingMergesVariantsInStream) {
  auto terms = ExtractTerms("searching searched searches");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], terms[1]);
  EXPECT_EQ(terms[1], terms[2]);
}

// Random text mixing case, digits, punctuation, stopwords and suffix
// families that stem together.
std::string RandomText(Rng* rng) {
  static const std::vector<std::string> kWords = {
      "connect", "Connected", "CONNECTION", "connections", "the", "The",
      "and",     "of",        "search",     "Searching",   "searched",
      "x300b",   "1299",      "42",         "a",           "I",
      "ox",      "running",   "Runs",       "hippopotamus", "relational",
      "is",      "caresses",  "ponies",     "ties",         "generalization"};
  static const std::vector<std::string> kSeparators = {
      " ", "  ", ",", ";", "-", "!? ", "$", "\n", ".", "'"};
  std::string text;
  int words = static_cast<int>(rng->UniformRange(0, 40));
  for (int w = 0; w < words; ++w) {
    if (rng->Bernoulli(0.2)) {
      int letters = static_cast<int>(rng->UniformRange(1, 9));
      for (int l = 0; l < letters; ++l) {
        const char* alphabet = "abcdeXYZ019";
        text.push_back(alphabet[rng->UniformInt(11)]);
      }
    } else {
      text += rng->Pick(kWords);
    }
    text += rng->Pick(kSeparators);
  }
  return text;
}

TEST(TermAnalyzerTest, IdsMatchExtractTermsUnderEveryOption) {
  for (bool stem : {false, true}) {
    for (bool remove_stopwords : {false, true}) {
      for (bool keep_numbers : {false, true}) {
        for (int min_length : {1, 2, 4}) {
          TermOptions options;
          options.stem = stem;
          options.remove_stopwords = remove_stopwords;
          options.keep_numbers = keep_numbers;
          options.min_length = min_length;
          SCOPED_TRACE(testing::Message()
                       << "stem=" << stem << " stopwords=" << remove_stopwords
                       << " numbers=" << keep_numbers
                       << " min_length=" << min_length);
          Rng rng(0x7e57 + static_cast<uint64_t>(min_length));
          TermAnalyzer analyzer(options);
          // Terms and ids across every text, so equality is checked over
          // the analyzer's whole lifetime, not one text at a time.
          std::vector<std::string> terms;
          std::vector<int32_t> ids;
          for (int t = 0; t < 60; ++t) {
            std::string text = RandomText(&rng);
            std::vector<std::string> text_terms = ExtractTerms(text, options);
            std::vector<int32_t> text_ids;
            analyzer.AppendTermIds(text, &text_ids);
            ASSERT_EQ(text_ids.size(), text_terms.size()) << text;
            std::vector<int32_t> again;
            analyzer.AppendTermIds(text, &again);
            EXPECT_EQ(again, text_ids) << text;
            terms.insert(terms.end(), text_terms.begin(), text_terms.end());
            ids.insert(ids.end(), text_ids.begin(), text_ids.end());
          }
          ASSERT_FALSE(ids.empty());
          for (size_t i = 0; i < ids.size(); ++i) {
            ASSERT_GE(ids[i], 0);
            ASSERT_LT(ids[i], analyzer.num_terms());
            for (size_t j = i + 1; j < ids.size(); ++j) {
              ASSERT_EQ(ids[i] == ids[j], terms[i] == terms[j])
                  << terms[i] << " vs " << terms[j];
            }
          }
        }
      }
    }
  }
}

TEST(TermAnalyzerTest, IdsAreDenseInFirstSeenOrder) {
  TermAnalyzer analyzer;
  std::vector<int32_t> ids;
  analyzer.AppendTermIds("Connected dogs, the connection; DOG 7 dogs", &ids);
  // connect, dog, (the: stopword), connect, dog, 7 dropped (too short), dog
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 0, 1, 1}));
  EXPECT_EQ(analyzer.num_terms(), 2);
  ids.clear();
  analyzer.AppendTermIds("1299 connect", &ids);
  EXPECT_EQ(ids, (std::vector<int32_t>{2, 0}));
  EXPECT_EQ(analyzer.num_terms(), 3);
}

}  // namespace
}  // namespace thor::text
