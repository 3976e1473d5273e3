#include "src/deepweb/prober.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/deepweb/resilient_prober.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/transport.h"
#include "src/text/word_lists.h"

namespace thor::deepweb {
namespace {

/// Stage 1 against the pristine simulator: ResilientProbeSite over a
/// DirectTransport, where no fetch fails.
std::vector<QueryResponse> ProbeDirect(const DeepWebSite& site,
                                       const ProbeOptions& plan) {
  DirectTransport direct(&site);
  ResilientProbeOptions options;
  options.plan = plan;
  auto result = ResilientProbeSite(&direct, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_EQ(result->stats.attempts, result->stats.words_planned);
  EXPECT_EQ(result->stats.abandoned_words, 0);
  return std::move(result->responses);
}

TEST(ProberTest, PlanHasRequestedCounts) {
  ProbeOptions options;
  options.num_dictionary_words = 100;
  options.num_nonsense_words = 10;
  ProbePlan plan = MakeProbePlan(options);
  EXPECT_EQ(plan.dictionary_words.size(), 100u);
  EXPECT_EQ(plan.nonsense_words.size(), 10u);
}

TEST(ProberTest, PlanIsDeterministic) {
  ProbeOptions options;
  ProbePlan a = MakeProbePlan(options);
  ProbePlan b = MakeProbePlan(options);
  EXPECT_EQ(a.dictionary_words, b.dictionary_words);
  EXPECT_EQ(a.nonsense_words, b.nonsense_words);
}

TEST(ProberTest, DifferentSeedsGiveDifferentPlans) {
  ProbeOptions a;
  a.seed = 1;
  ProbeOptions b;
  b.seed = 2;
  EXPECT_NE(MakeProbePlan(a).dictionary_words,
            MakeProbePlan(b).dictionary_words);
}

TEST(ProberTest, DictionaryWordsComeFromLexicon) {
  ProbePlan plan = MakeProbePlan(ProbeOptions{});
  const auto& lexicon = text::EnglishLexicon();
  for (const auto& w : plan.dictionary_words) {
    EXPECT_TRUE(std::binary_search(lexicon.begin(), lexicon.end(), w)) << w;
  }
}

TEST(ProberTest, ProbeReturnsOnePagePerWord) {
  FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions options;
  options.num_dictionary_words = 30;
  options.num_nonsense_words = 5;
  auto responses = ProbeDirect(fleet[0], options);
  ASSERT_EQ(responses.size(), 35u);
  for (const auto& r : responses) {
    EXPECT_FALSE(r.html.empty());
    EXPECT_FALSE(r.query.empty());
  }
}

TEST(ProberTest, NonsenseResponsesAreFlaggedAndNeverAnswers) {
  FleetOptions fleet_options;
  fleet_options.num_sites = 3;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions options;
  for (const auto& site : fleet) {
    auto responses = ProbeDirect(site, options);
    int flagged = 0;
    for (const auto& r : responses) {
      if (r.from_nonsense_probe) {
        ++flagged;
        EXPECT_FALSE(ClassHasPagelet(r.page_class)) << r.query;
      }
    }
    EXPECT_EQ(flagged, options.num_nonsense_words);
  }
}

TEST(ProberTest, ProbingYieldsMultiplePageClasses) {
  // The paper's requirement: probing must surface a diverse set of answer
  // page classes, at minimum answers and no-matches.
  FleetOptions fleet_options;
  fleet_options.num_sites = 5;
  auto fleet = GenerateSiteFleet(fleet_options);
  ProbeOptions options;
  for (const auto& site : fleet) {
    std::set<PageClass> classes;
    for (const auto& r : ProbeDirect(site, options)) {
      classes.insert(r.page_class);
    }
    EXPECT_GE(classes.size(), 2u);
    EXPECT_TRUE(classes.count(PageClass::kNoMatch) > 0);
  }
}

}  // namespace
}  // namespace thor::deepweb
