#ifndef THOR_DEEPWEB_SITE_H_
#define THOR_DEEPWEB_SITE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/deepweb/record_catalog.h"
#include "src/deepweb/site_template.h"

namespace thor::deepweb {

/// Ground-truth page classes produced by the simulator — the classes the
/// paper hand-labeled ("normal results", "no results", etc.).
enum class PageClass {
  kMultiMatch = 0,
  kSingleMatch = 1,
  kNoMatch = 2,
  kError = 3,
};
inline constexpr int kNumPageClasses = 4;

const char* PageClassName(PageClass page_class);

/// \brief The keyword hash every per-query stream in `deepweb/` derives
/// from: a site's render and error draws, the fault decisions of
/// FaultInjectingTransport and the resilient prober's backoff jitter.
///
/// FNV-1a-style over the ASCII-lowercased keyword, finalized with
/// SplitMix64. The basis 1469598103934665603 is one digit short of
/// FNV-1a's offset basis (14695981039346656037). It stays as it is:
/// every simulated page, fault and jitter draw — and so every golden and
/// every EXPERIMENTS.md number — is a function of it.
uint64_t HashKeyword(std::string_view keyword);

/// Whether pages of this class contain a QA-Pagelet.
inline bool ClassHasPagelet(PageClass c) {
  return c == PageClass::kMultiMatch || c == PageClass::kSingleMatch;
}

/// \brief Deterministic template-drift schedule for one site.
///
/// Drift is a pure function of (seed, epoch): epoch 0 is the pristine
/// presentation genome, and every later epoch applies one seeded mutation
/// step on top of the previous one. Tests and benches replay an exact
/// drift history by setting the same seed and stepping through the same
/// epochs — there is no hidden wall-clock dependence.
struct DriftSchedule {
  /// 0 disables drift entirely (SetEpoch becomes a no-op and the site
  /// renders byte-identically to a schedule-free site).
  uint64_t seed = 0;
  /// Per-knob probability that one epoch step mutates a presentation knob
  /// (gradual drift; 1.0 approximates a full redesign per epoch).
  double mutation_rate = 0.35;
  /// Fraction of queries served by a per-epoch B-arm redesign (an A/B
  /// template split: part of the traffic sees a candidate new template
  /// while the rest still gets the drifted A arm). 0 disables the split.
  double ab_fraction = 0.0;
  /// Re-roll the ad block's presence probability and position each epoch
  /// (ad-region churn on top of the per-page ad rotation).
  bool ad_churn = true;
};

/// Configuration of one simulated deep-web source.
struct SiteConfig {
  int site_id = 0;
  Domain domain = Domain::kEcommerce;
  uint64_t seed = 1;
  /// When non-zero, the presentation genome is sampled from this seed
  /// instead of `seed`, so the same database can be served under a
  /// redesigned template (the paper's presentation-change robustness
  /// scenario).
  uint64_t style_seed = 0;
  int catalog_size = 800;
  /// Probability that a query hits a transient server error page.
  double error_rate = 0.02;
  /// Template-drift schedule (seed 0 = static site).
  DriftSchedule drift;
};

/// A dynamically generated answer page plus its ground truth.
struct QueryResponse {
  std::string url;
  std::string html;
  PageClass page_class = PageClass::kNoMatch;
  std::string query;
  /// Number of catalog records matched (before per-page capping).
  int num_matches = 0;
  /// Set by the prober: this page was produced by a nonsense probe word
  /// (guaranteed unindexed), so it cannot be an answer page. THOR uses
  /// this stage-1 knowledge to veto the no-match cluster.
  bool from_nonsense_probe = false;
};

/// \brief One simulated deep-web source: a search form over a hidden
/// database, answering single-keyword queries with dynamically generated
/// pages.
///
/// Responses are deterministic: the same (site seed, keyword) pair always
/// yields byte-identical HTML, so every experiment is reproducible. The
/// rotating ad block and error dispatch are driven by a per-query RNG
/// derived from the keyword.
class DeepWebSite {
 public:
  explicit DeepWebSite(const SiteConfig& config);

  /// Answers a single-keyword probe query.
  QueryResponse Query(std::string_view keyword) const;

  /// Advances (or rewinds) the site to drift epoch `epoch`: the current
  /// style becomes the base genome mutated `epoch` times under the
  /// config's DriftSchedule, and — when the schedule has an A/B split —
  /// the epoch's B-arm redesign is resampled. Deterministic: the same
  /// (config, epoch) always renders byte-identical pages, regardless of
  /// the epochs visited in between. No-op without a drift schedule.
  /// Not thread-safe against concurrent Query on the *same* site.
  void SetEpoch(int epoch);
  int epoch() const { return epoch_; }

  const SiteConfig& config() const { return config_; }
  const SiteStyle& style() const { return style_; }
  const RecordCatalog& catalog() const { return catalog_; }
  const std::string& base_url() const { return base_url_; }

 private:
  SiteConfig config_;
  RecordCatalog catalog_;
  SiteStyle style_;       ///< current (epoch-drifted) A-arm style
  SiteStyle base_style_;  ///< pristine epoch-0 genome
  SiteStyle style_b_;     ///< current epoch's B-arm redesign (if split)
  bool has_b_arm_ = false;
  int epoch_ = 0;
  std::string base_url_;
};

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_SITE_H_
