#include "src/deepweb/corpus.h"

namespace thor::deepweb {

std::vector<int> SiteSample::ClassLabels() const {
  std::vector<int> labels;
  labels.reserve(pages.size());
  for (const LabeledPage& p : pages) {
    labels.push_back(static_cast<int>(p.true_class));
  }
  return labels;
}

std::vector<int> SiteSample::PageletPageIndices() const {
  std::vector<int> indices;
  for (size_t i = 0; i < pages.size(); ++i) {
    if (ClassHasPagelet(pages[i].true_class)) {
      indices.push_back(static_cast<int>(i));
    }
  }
  return indices;
}

namespace {

/// Fills in metadata and reads the ground-truth markers back from the
/// response's start tags. Values arrive in document order, so the last
/// pagelet marker wins and objects keep their order.
LabeledPage FinishLabeledPage(const QueryResponse& response,
                              html::ArenaTree tree) {
  LabeledPage page;
  page.url = response.url;
  page.query = response.query;
  page.html = response.html;
  page.size_bytes = static_cast<int>(response.html.size());
  page.true_class = response.page_class;
  page.from_nonsense_probe = response.from_nonsense_probe;
  page.tree = std::move(tree);
  for (const html::NodeAttribute& marker :
       html::FindAttributeValues(page.html, page.tree, kQaMarkerAttr)) {
    if (marker.value == kQaPageletValue) {
      page.pagelet_node = marker.node;
    } else if (marker.value == kQaObjectValue) {
      page.object_nodes.push_back(marker.node);
    }
  }
  return page;
}

}  // namespace

const char* PageDropReasonName(PageDropReason reason) {
  switch (reason) {
    case PageDropReason::kNone:
      return "none";
    case PageDropReason::kBodyTooSmall:
      return "body_too_small";
    case PageDropReason::kParseFailed:
      return "parse_failed";
    case PageDropReason::kTreeTooSmall:
      return "tree_too_small";
  }
  return "unknown";
}

Result<LabeledPage> LabelPageChecked(const QueryResponse& response,
                                     html::ParseDiagnostics* diagnostics,
                                     PageDropReason* reason) {
  if (reason != nullptr) *reason = PageDropReason::kNone;
  if (static_cast<int>(response.html.size()) < kMinPageBytes) {
    if (reason != nullptr) *reason = PageDropReason::kBodyTooSmall;
    return Status::ParseError("page body too small (" +
                              std::to_string(response.html.size()) +
                              " bytes)");
  }
  html::ParseDiagnostics local;
  auto tree = html::ParseArenaChecked(response.html, {}, &local);
  if (diagnostics != nullptr) *diagnostics = local;
  if (!tree.ok()) {
    if (reason != nullptr) *reason = PageDropReason::kParseFailed;
    return tree.status();
  }
  if (local.tag_nodes < kMinPageTagNodes) {
    if (reason != nullptr) *reason = PageDropReason::kTreeTooSmall;
    return Status::ParseError(
        "parsed tree too small (" + std::to_string(local.tag_nodes) +
        " tag nodes)" +
        (local.truncated_markup ? " -- input truncated inside markup" : ""));
  }
  return FinishLabeledPage(response, std::move(*tree));
}

SiteSample BuildSiteSample(const DeepWebSite& site,
                           const ProbeOptions& options) {
  DirectTransport direct(&site);
  ResilientProbeOptions probe;
  probe.plan = options;
  auto sample = BuildSiteSampleResilient(site.config().site_id, &direct, probe);
  if (sample.ok()) return std::move(*sample);
  SiteSample empty;
  empty.site_id = site.config().site_id;
  return empty;
}

std::vector<SiteSample> BuildCorpus(const std::vector<DeepWebSite>& fleet,
                                    const ProbeOptions& options) {
  ResilientProbeOptions probe;
  probe.plan = options;
  return BuildCorpusResilient(fleet, probe, FaultOptions{});
}

Result<SiteSample> BuildSiteSampleResilient(
    int site_id, SiteTransport* transport,
    const ResilientProbeOptions& options) {
  auto probe = ResilientProbeSite(transport, options);
  if (!probe.ok()) return probe.status();
  SiteSample sample;
  sample.site_id = site_id;
  sample.diagnostics.probe = probe->stats;
  sample.pages.reserve(probe->responses.size());
  for (const QueryResponse& response : probe->responses) {
    html::ParseDiagnostics diagnostics;
    PageDropReason reason = PageDropReason::kNone;
    auto page = LabelPageChecked(response, &diagnostics, &reason);
    if (!page.ok()) {
      // Damaged beyond use: drop the page, keep the count. The sample
      // degrades; it does not poison the pipeline.
      ++sample.diagnostics.pages_dropped;
      AddCounter(options.metrics, "corpus.pages_dropped");
      AddCounter(options.metrics,
                 std::string("corpus.drop.") + PageDropReasonName(reason));
      continue;
    }
    if (diagnostics.truncated_markup) {
      ++sample.diagnostics.pages_truncated_kept;
      AddCounter(options.metrics, "corpus.pages_truncated_kept");
    }
    sample.pages.push_back(std::move(*page));
  }
  if (sample.pages.empty()) {
    return Status::Internal("site " + std::to_string(site_id) +
                            ": no usable pages after validation (" +
                            probe->stats.ToString() + ")");
  }
  return sample;
}

std::vector<SiteSample> BuildCorpusResilient(
    const std::vector<DeepWebSite>& fleet,
    const ResilientProbeOptions& options, const FaultOptions& faults,
    ProbeStats* total_stats) {
  std::vector<SiteSample> corpus;
  corpus.reserve(fleet.size());
  for (const DeepWebSite& site : fleet) {
    uint64_t site_salt =
        0x9e37u * static_cast<uint64_t>(site.config().site_id);
    ResilientProbeOptions per_site = options;
    per_site.plan.seed = options.plan.seed + site_salt;
    FaultOptions per_site_faults = faults;
    per_site_faults.seed = faults.seed + site_salt;
    DirectTransport direct(&site);
    FaultInjectingTransport chaotic(&direct, per_site_faults);
    auto sample =
        BuildSiteSampleResilient(site.config().site_id, &chaotic, per_site);
    AddCounter(options.metrics, "corpus.sites_probed");
    if (sample.ok()) {
      if (total_stats != nullptr) {
        total_stats->Add(sample->diagnostics.probe);
      }
      corpus.push_back(std::move(*sample));
    } else {
      // Total collapse: keep an empty sample so the caller sees the site
      // was attempted and lost, rather than silently shrinking the fleet.
      AddCounter(options.metrics, "corpus.sites_collapsed");
      SiteSample empty;
      empty.site_id = site.config().site_id;
      corpus.push_back(std::move(empty));
    }
  }
  return corpus;
}

}  // namespace thor::deepweb
