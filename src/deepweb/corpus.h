#ifndef THOR_DEEPWEB_CORPUS_H_
#define THOR_DEEPWEB_CORPUS_H_

#include <string>
#include <vector>

#include "src/deepweb/prober.h"
#include "src/deepweb/resilient_prober.h"
#include "src/deepweb/site.h"
#include "src/deepweb/transport.h"
#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"
#include "src/util/status.h"

namespace thor::deepweb {

/// \brief A cached answer page with parsed tree and ground-truth labels —
/// the unit of the paper's hand-labeled 5,500-page corpus.
///
/// Ground truth comes from the generator: the renderer marks the
/// QA-Pagelet root with data-qa="pagelet" and each QA-Object root with
/// data-qa="object". The THOR algorithms never consult attributes (the
/// tree stores none), so the markers are inert for extraction and visible
/// only to evaluation.
struct LabeledPage {
  std::string url;
  std::string query;
  std::string html;
  html::ArenaTree tree;
  PageClass true_class = PageClass::kNoMatch;
  /// Ground-truth QA-Pagelet root, or kInvalidNode for no-match/error pages.
  html::NodeId pagelet_node = html::kInvalidNode;
  /// Ground-truth QA-Object roots within the pagelet.
  std::vector<html::NodeId> object_nodes;
  int size_bytes = 0;
  /// This page came from a nonsense probe word (stage-1 knowledge).
  bool from_nonsense_probe = false;

  LabeledPage() = default;
  LabeledPage(LabeledPage&&) = default;
  LabeledPage& operator=(LabeledPage&&) = default;
  LabeledPage(const LabeledPage&) = delete;
  LabeledPage& operator=(const LabeledPage&) = delete;
};

/// Degradation accounting for one site's sample build.
struct SampleDiagnostics {
  /// Pages fetched but dropped as unparseable/degenerate (truncated or
  /// garbled beyond use).
  int pages_dropped = 0;
  /// Pages kept although their body arrived truncated.
  int pages_truncated_kept = 0;
  /// Transport-level stats of the probe session.
  ProbeStats probe;
};

/// All probed pages of one site.
struct SiteSample {
  int site_id = 0;
  std::vector<LabeledPage> pages;
  SampleDiagnostics diagnostics;

  /// Ground-truth class labels as ints (for entropy computation).
  std::vector<int> ClassLabels() const;
  /// Indices of pages whose class carries a QA-Pagelet.
  std::vector<int> PageletPageIndices() const;
};

/// Bodies below this many bytes are rejected outright (a truncated
/// transfer's residue, not a page).
inline constexpr int kMinPageBytes = 16;
/// Parsed trees need at least this many tag nodes to be analyzable (root
/// and synthesized body count toward it).
inline constexpr int kMinPageTagNodes = 3;

/// Why LabelPageChecked rejected a fetched page.
enum class PageDropReason {
  kNone = 0,       ///< page accepted
  kBodyTooSmall,   ///< body under kMinPageBytes
  kParseFailed,    ///< the checked parse refused the markup
  kTreeTooSmall,   ///< parsed tree under kMinPageTagNodes
};

/// Stable metric-suffix name ("body_too_small", ...).
const char* PageDropReasonName(PageDropReason reason);

/// \brief Parses one query response and attaches its ground-truth labels.
///
/// Parses once, with this thread's HotParser under the checked-parse
/// rules (`html::ParseArenaChecked`), and rejects degenerate pages with
/// Status::ParseError instead of emitting an unusable LabeledPage. A
/// truncated page that still parses into a substantial tree is accepted
/// (with the damage visible in `diagnostics`). The markers are read from
/// that same parse (`html::FindAttributeValues`): only the start tags
/// that carry `data-qa` are lexed again. `reason` (optional) reports why a
/// page was rejected — the sample build feeds it into per-reason drop
/// counters. No simulator page is rejected.
Result<LabeledPage> LabelPageChecked(
    const QueryResponse& response,
    html::ParseDiagnostics* diagnostics = nullptr,
    PageDropReason* reason = nullptr);

/// Probes `site` through a DirectTransport and labels every page:
/// BuildSiteSampleResilient with nothing to go wrong. A session that
/// collects nothing yields an empty sample carrying the site id.
SiteSample BuildSiteSample(const DeepWebSite& site,
                           const ProbeOptions& options);

/// BuildCorpusResilient with no faults: probes every site in the fleet.
/// The per-site probe seed is varied so different sites receive different
/// word samples, as a crawler would.
std::vector<SiteSample> BuildCorpus(const std::vector<DeepWebSite>& fleet,
                                    const ProbeOptions& options);

/// \brief Probes through `transport` with ResilientProbeSite, labels every
/// page with LabelPageChecked, and drops unusable pages with counted
/// diagnostics.
///
/// Partial loss degrades the sample (diagnostics say by how much); only a
/// session that yields zero usable pages is an error.
Result<SiteSample> BuildSiteSampleResilient(
    int site_id, SiteTransport* transport,
    const ResilientProbeOptions& options);

/// Probes the whole fleet through per-site fault-injecting transports
/// (fault seed varied per site, like the probe-word seed). Sites whose
/// probe session collapses entirely are kept as empty samples so callers
/// can report them; `total_stats` (optional) accumulates probe stats
/// across the fleet.
std::vector<SiteSample> BuildCorpusResilient(
    const std::vector<DeepWebSite>& fleet,
    const ResilientProbeOptions& options, const FaultOptions& faults,
    ProbeStats* total_stats = nullptr);

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_CORPUS_H_
