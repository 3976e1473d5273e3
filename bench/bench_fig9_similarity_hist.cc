// Reproduces Figure 9: histogram of intra-subtree-set similarity scores
// for the common subtree sets, without TFIDF weighting (left panel) and
// with it (right panel).
//
// Expected shape (paper): without TFIDF nearly all sets pile up at high
// similarity (inseparable); with TFIDF the distribution is bimodal —
// query-dependent sets near 0, static sets near 1 — so the 0.5 threshold
// is uncritical.

#include <cstdlib>

#include "bench/bench_util.h"
#include "src/core/thor.h"

namespace thor {
namespace {

constexpr int kBins = 10;

int Main(int argc, char** argv) {
  int num_sites = argc > 1 ? std::atoi(argv[1]) : 50;
  auto corpus = bench::BuildPaperCorpus(num_sites);

  int histogram[2][kBins] = {};
  int totals[2] = {};
  for (const auto& sample : corpus) {
    for (deepweb::PageClass wanted :
         {deepweb::PageClass::kMultiMatch, deepweb::PageClass::kSingleMatch}) {
      std::vector<const html::ArenaTree*> trees;
      for (const auto& page : sample.pages) {
        if (page.true_class == wanted) trees.push_back(&page.tree);
      }
      if (trees.size() < 3) continue;
      std::vector<std::vector<html::NodeId>> candidates;
      for (const auto* tree : trees) {
        candidates.push_back(core::CandidateSubtrees(*tree));
      }
      auto sets = core::FindCommonSubtreeSets(trees, candidates, {});
      for (int use_tfidf = 0; use_tfidf <= 1; ++use_tfidf) {
        core::SubtreeRankOptions options;
        options.use_tfidf = use_tfidf == 1;
        for (const auto& ranked :
             core::RankSubtreeSets(trees, sets, options)) {
          if (ranked.set.members.size() < 2) continue;
          int bin = std::min(kBins - 1,
                             static_cast<int>(ranked.intra_similarity *
                                              kBins));
          ++histogram[use_tfidf][bin];
          ++totals[use_tfidf];
        }
      }
    }
  }

  bench::PrintHeader("Figure 9: intra-subtree-set similarity histogram (" +
                     std::to_string(num_sites) + " sites)");
  bench::PrintRow("bin", {"noTFIDF", "withTFIDF"}, 14, 12);
  for (int b = 0; b < kBins; ++b) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.1f-%.1f", b / 10.0,
                  (b + 1) / 10.0);
    auto percent = [&](int which) {
      return totals[which] > 0
                 ? bench::Fmt(100.0 * histogram[which][b] / totals[which], 1)
                 : bench::Fmt(0.0, 1);
    };
    bench::PrintRow(label, {percent(0) + "%", percent(1) + "%"}, 14, 12);
  }
  double low_with = 0.0;
  double high_with = 0.0;
  for (int b = 0; b < 3; ++b) low_with += histogram[1][b];
  for (int b = 7; b < kBins; ++b) high_with += histogram[1][b];
  std::printf(
      "\nwith TFIDF: %.1f%% of sets below 0.3, %.1f%% above 0.7 "
      "(bimodal);\npaper shape check: without TFIDF mass concentrates at "
      "the high end,\nwith TFIDF the low and high ends dominate and 0.5 "
      "splits them cleanly.\n",
      100.0 * low_with / std::max(1, totals[1]),
      100.0 * high_with / std::max(1, totals[1]));
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
