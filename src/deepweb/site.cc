#include "src/deepweb/site.h"

#include <algorithm>

#include "src/util/strings.h"

namespace thor::deepweb {

uint64_t HashKeyword(std::string_view keyword) {
  // Not FNV-1a's offset basis; see the header before touching it.
  uint64_t h = 1469598103934665603ULL;
  for (char c : keyword) {
    h ^= static_cast<unsigned char>(AsciiToLower(c));
    h *= 1099511628211ULL;
  }
  return SplitMix64(&h);
}

const char* PageClassName(PageClass page_class) {
  switch (page_class) {
    case PageClass::kMultiMatch:
      return "multi-match";
    case PageClass::kSingleMatch:
      return "single-match";
    case PageClass::kNoMatch:
      return "no-match";
    case PageClass::kError:
      return "error";
  }
  return "unknown";
}

DeepWebSite::DeepWebSite(const SiteConfig& config) : config_(config) {
  Rng rng(config.seed);
  Rng catalog_rng = rng.Fork();
  catalog_ = RecordCatalog::Generate(config.domain, config.catalog_size,
                                     &catalog_rng);
  Rng style_rng =
      config.style_seed != 0 ? Rng(config.style_seed) : rng.Fork();
  std::string name = "Site";
  name.append(std::to_string(config.site_id));
  name.append(DomainName(config.domain));
  // Capitalize for a storefront look, e.g. "Site7music" -> "Site7Music".
  style_ = SiteStyle::Sample(config.domain, std::move(name), &style_rng);
  base_style_ = style_;
  base_url_ = "http://site";
  base_url_.append(std::to_string(config.site_id));
  base_url_.push_back('.');
  base_url_.append(DomainName(config.domain));
  base_url_.append(".example/search.dll?query=");
}

void DeepWebSite::SetEpoch(int epoch) {
  if (epoch < 0) epoch = 0;
  epoch_ = epoch;
  style_ = base_style_;
  has_b_arm_ = false;
  const DriftSchedule& drift = config_.drift;
  if (drift.seed == 0 || epoch == 0) return;
  // Drift is cumulative: epoch N's style is the base genome mutated once
  // per step, each step under its own seed-derived rng, so any epoch can
  // be reconstructed directly without replaying intermediate SetEpoch
  // calls in order.
  for (int step = 1; step <= epoch; ++step) {
    Rng rng(drift.seed ^
            (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(step)));
    style_ = DriftStyle(std::move(style_), drift.mutation_rate, &rng);
    if (drift.ad_churn && style_.has_ad_block) {
      style_.ad_presence = 0.3 + 0.7 * rng.UniformDouble();
      style_.ad_before_results = rng.Bernoulli(0.5);
    }
  }
  if (drift.ab_fraction > 0.0) {
    // The B arm is a full per-epoch redesign candidate, the template a
    // site rolls out to a slice of its traffic before committing.
    Rng rng(drift.seed ^ 0xababababababababULL ^
            (0x2545f4914f6cdd1dULL * static_cast<uint64_t>(epoch)));
    style_b_ =
        SiteStyle::Sample(config_.domain, base_style_.site_name, &rng);
    has_b_arm_ = true;
  }
}

QueryResponse DeepWebSite::Query(std::string_view keyword) const {
  QueryResponse response;
  response.query = std::string(keyword);
  response.url = base_url_;
  response.url.append(response.query);
  // The A/B coin uses its own rng so enabling a split never perturbs the
  // error/render stream of the arm a query lands on.
  const SiteStyle* style = &style_;
  if (has_b_arm_) {
    Rng ab_rng(config_.drift.seed ^ HashKeyword(keyword) ^
               (0xda942042e4dd58b5ULL * static_cast<uint64_t>(epoch_)));
    if (ab_rng.Bernoulli(config_.drift.ab_fraction)) style = &style_b_;
  }
  Rng query_rng(config_.seed ^ HashKeyword(keyword));
  if (query_rng.Bernoulli(config_.error_rate)) {
    response.page_class = PageClass::kError;
    response.html = RenderErrorPage(*style, keyword);
    if (style->sloppy_markup) {
      response.html = DropOptionalEndTags(std::move(response.html));
    }
    return response;
  }
  std::vector<int> matches = catalog_.Search(keyword);
  response.num_matches = static_cast<int>(matches.size());
  if (matches.empty()) {
    response.page_class = PageClass::kNoMatch;
    std::vector<const Record*> popular;
    if (catalog_.size() > 0) {
      int count = static_cast<int>(query_rng.UniformRange(3, 5));
      for (int i = 0; i < count; ++i) {
        popular.push_back(&catalog_.record(static_cast<int>(
            query_rng.UniformInt(static_cast<uint64_t>(catalog_.size())))));
      }
    }
    response.html = RenderNoMatchPage(*style, config_.domain, keyword,
                                      popular, &query_rng);
  } else if (matches.size() == 1) {
    response.page_class = PageClass::kSingleMatch;
    response.html = RenderSingleMatchPage(
        *style, config_.domain, keyword, catalog_.record(matches[0]),
        &query_rng);
  } else {
    response.page_class = PageClass::kMultiMatch;
    std::vector<const Record*> listed;
    int cap = std::min<int>(style->max_results_per_page,
                            static_cast<int>(matches.size()));
    listed.reserve(static_cast<size_t>(cap));
    for (int i = 0; i < cap; ++i) {
      listed.push_back(&catalog_.record(matches[static_cast<size_t>(i)]));
    }
    response.html = RenderMultiMatchPage(*style, config_.domain, keyword,
                                         listed, &query_rng);
  }
  if (style->sloppy_markup) {
    response.html = DropOptionalEndTags(std::move(response.html));
  }
  return response;
}

}  // namespace thor::deepweb
