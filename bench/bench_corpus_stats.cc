// Reproduces the paper's Section-4 corpus statistics: the probed corpus
// size, per-class distribution, average distinct tags vs distinct content
// terms per page (paper: 22.3 vs 184.0 — the size gap that makes tag
// clustering an order of magnitude faster), and page parse time (the
// paper's Java/Tidy stack needed ~1.2 s per page).

#include <cstdlib>

#include "bench/bench_util.h"
#include "src/core/signature_builder.h"
#include "src/html/arena_parser.h"

namespace thor {
namespace {

int Main(int argc, char** argv) {
  int num_sites = argc > 1 ? std::atoi(argv[1]) : 50;
  auto corpus = bench::BuildPaperCorpus(num_sites);

  int total_pages = 0;
  int class_counts[deepweb::kNumPageClasses] = {};
  double distinct_tags = 0.0;
  double distinct_terms = 0.0;
  double bytes = 0.0;
  double parse_seconds = 0.0;
  for (const auto& sample : corpus) {
    for (const auto& page : sample.pages) {
      ++total_pages;
      ++class_counts[static_cast<int>(page.true_class)];
      distinct_tags += core::DistinctTagCount(page.tree);
      distinct_terms += core::DistinctTermCount(page.tree);
      bytes += page.size_bytes;
      parse_seconds += bench::TimeSeconds([&] {
        html::ArenaTree reparsed = html::ParseArena(page.html);
        (void)reparsed;
      });
    }
  }

  bench::PrintHeader("Corpus statistics (paper Section 4)");
  std::printf("sites: %d, pages: %d (paper: 50 sites, 5,500 pages)\n",
              num_sites, total_pages);
  for (int c = 0; c < deepweb::kNumPageClasses; ++c) {
    std::printf("  class %-12s %5d pages (%.1f%%)\n",
                deepweb::PageClassName(static_cast<deepweb::PageClass>(c)),
                class_counts[c], 100.0 * class_counts[c] / total_pages);
  }
  std::printf("avg distinct tags per page:  %6.1f (paper: 22.3)\n",
              distinct_tags / total_pages);
  std::printf("avg distinct terms per page: %6.1f (paper: 184.0)\n",
              distinct_terms / total_pages);
  std::printf("avg page size: %.0f bytes\n", bytes / total_pages);
  std::printf(
      "avg parse time per page: %.3f ms (paper: ~1200 ms on 2003 "
      "hardware/Java)\n",
      1000.0 * parse_seconds / total_pages);
  std::printf(
      "\npaper shape check: distinct terms exceed distinct tags by roughly "
      "an\norder of magnitude, which drives the Figure 5 cost gap.\n");
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
