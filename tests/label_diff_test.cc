// Differential tests for what learning trusts now that it parses each
// probed page once, with HotParser: the ground-truth labels
// LabelPageChecked reads back from that parse, and the checked parse's
// accept-or-reject decision, messages and diagnostics. Each is held to the
// legacy labeller (ParseHtmlChecked + TagTree::AttributeValue) on the
// simulator's pages across template drift, on crafted marker placements,
// and on every prefix and seeded byte mutation of real pages — the inputs
// chaos mode's truncated transfers produce.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/deepweb/corpus.h"
#include "src/deepweb/resilient_prober.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/transport.h"
#include "src/html/arena_parser.h"
#include "tests/oracle/parser.h"
#include "src/util/rng.h"
#include "tests/tree_diff.h"

namespace thor::deepweb {
namespace {

/// Everything LabelPageChecked decides about one response.
struct Labels {
  bool ok = false;
  std::string error;
  PageDropReason reason = PageDropReason::kNone;
  bool truncated_markup = false;
  int tag_nodes = 0;
  html::NodeId pagelet = html::kInvalidNode;
  std::vector<html::NodeId> objects;
};

void ExpectSameLabels(const Labels& legacy, const Labels& arena,
                      const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(legacy.ok, arena.ok) << legacy.error << " | " << arena.error;
  EXPECT_EQ(legacy.error, arena.error);
  EXPECT_EQ(legacy.reason, arena.reason);
  EXPECT_EQ(legacy.truncated_markup, arena.truncated_markup);
  EXPECT_EQ(legacy.tag_nodes, arena.tag_nodes);
  EXPECT_EQ(legacy.pagelet, arena.pagelet);
  EXPECT_EQ(legacy.objects, arena.objects);
}

/// LabelPageChecked, the arena labeller under test.
Labels ArenaLabels(std::string_view html) {
  QueryResponse response;
  response.html = std::string(html);
  html::ParseDiagnostics diagnostics;
  Labels labels;
  auto page = LabelPageChecked(response, &diagnostics, &labels.reason);
  labels.ok = page.ok();
  labels.truncated_markup = diagnostics.truncated_markup;
  labels.tag_nodes = diagnostics.tag_nodes;
  if (!page.ok()) {
    labels.error = page.status().ToString();
    return labels;
  }
  labels.pagelet = page->pagelet_node;
  labels.objects = page->object_nodes;
  return labels;
}

/// The labeller before learning moved to the arena tree, verbatim: the
/// legacy checked parse, the size and tag-node rules, and a preorder walk
/// reading the marker with TagTree::AttributeValue.
Labels LegacyLabels(std::string_view html) {
  Labels labels;
  if (static_cast<int>(html.size()) < kMinPageBytes) {
    labels.reason = PageDropReason::kBodyTooSmall;
    labels.error = Status::ParseError("page body too small (" +
                                      std::to_string(html.size()) + " bytes)")
                       .ToString();
    return labels;
  }
  html::ParseDiagnostics diagnostics;
  auto tree = html::ParseHtmlChecked(html, {}, &diagnostics);
  labels.truncated_markup = diagnostics.truncated_markup;
  labels.tag_nodes = diagnostics.tag_nodes;
  if (!tree.ok()) {
    labels.reason = PageDropReason::kParseFailed;
    labels.error = tree.status().ToString();
    return labels;
  }
  if (diagnostics.tag_nodes < kMinPageTagNodes) {
    labels.reason = PageDropReason::kTreeTooSmall;
    labels.error =
        Status::ParseError("parsed tree too small (" +
                           std::to_string(diagnostics.tag_nodes) +
                           " tag nodes)" +
                           (diagnostics.truncated_markup
                                ? " -- input truncated inside markup"
                                : ""))
            .ToString();
    return labels;
  }
  labels.ok = true;
  for (html::NodeId id : tree->Preorder()) {
    if (!tree->node(id).is_tag()) continue;
    std::string_view marker = tree->AttributeValue(id, kQaMarkerAttr);
    if (marker == kQaPageletValue) {
      labels.pagelet = id;
    } else if (marker == kQaObjectValue) {
      labels.objects.push_back(id);
    }
  }
  return labels;
}

/// The first `name` attribute of every tag node that has one, in id
/// order: what FindAttributeValues must report.
std::vector<html::NodeAttribute> LegacyAttributeValues(
    const html::TagTree& tree, std::string_view name) {
  std::vector<html::NodeAttribute> values;
  for (html::NodeId id = 0; id < tree.node_count(); ++id) {
    for (const html::Attribute& attribute : tree.node(id).attributes) {
      if (attribute.name == name) {
        values.push_back({id, attribute.value});
        break;
      }
    }
  }
  return values;
}

void ExpectSameAttributeValues(const std::vector<html::NodeAttribute>& legacy,
                               const std::vector<html::NodeAttribute>& arena) {
  ASSERT_EQ(legacy.size(), arena.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].node, arena[i].node);
    EXPECT_EQ(legacy[i].value, arena[i].value);
  }
}

std::vector<QueryResponse> ProbeResponses(const DeepWebSite& site,
                                          uint64_t seed) {
  DirectTransport direct(&site);
  ResilientProbeOptions options;
  options.plan.num_dictionary_words = 60;
  options.plan.num_nonsense_words = 6;
  options.plan.seed = seed;
  auto probe = ResilientProbeSite(&direct, options);
  EXPECT_TRUE(probe.ok()) << probe.status();
  return probe.ok() ? probe->responses : std::vector<QueryResponse>{};
}

// Every page CorpusTest probes, before and after template drift.
TEST(LabelDiffTest, ArenaLabelsMatchLegacyOnDriftingFleet) {
  FleetOptions fleet_options;
  fleet_options.num_sites = 20;
  fleet_options.drift.seed = 17;
  auto fleet = GenerateSiteFleet(fleet_options);
  int pagelets = 0;
  int objects = 0;
  for (int epoch : {0, 3}) {
    SetFleetEpoch(&fleet, epoch);
    for (const DeepWebSite& site : fleet) {
      for (const QueryResponse& response : ProbeResponses(site, 42)) {
        const Labels legacy = LegacyLabels(response.html);
        ExpectSameLabels(legacy, ArenaLabels(response.html),
                         "site " + std::to_string(site.config().site_id) +
                             " epoch " + std::to_string(epoch) + " query " +
                             response.query);
        pagelets += legacy.pagelet != html::kInvalidNode ? 1 : 0;
        objects += static_cast<int>(legacy.objects.size());
      }
    }
  }
  EXPECT_GT(pagelets, 1000);
  EXPECT_GT(objects, 3000);
}

struct Crafted {
  const char* name;
  std::string html;
};

std::vector<Crafted> CraftedPages() {
  return {
      {"marker in text", "<div><p>data-qa=\"pagelet\"</p><p>x</p></div>"},
      {"marker in a comment",
       "<div><!-- <div data-qa=\"pagelet\"> --><p>x</p></div>"},
      {"marker in script raw text",
       "<div><script>var s = '<div data-qa=\"pagelet\">';</script>"
       "<p>x</p></div>"},
      {"marker in style raw text",
       "<style>div[data-qa=\"pagelet\"] { color: red }</style>"
       "<div><p>x</p></div>"},
      {"marker in title and textarea raw text",
       "<title>data-qa=pagelet</title><div><textarea><b data-qa=\"object\">"
       "</textarea><p>x</p></div>"},
      {"marker in another attribute's value",
       "<div title='data-qa=\"pagelet\"' class=\"data-qa\"><p>x</p></div>"},
      {"marker inside longer names",
       "<div xdata-qa=\"pagelet\" data-qa-x=\"object\"><p>x</p></div>"},
      {"uppercase name",
       "<div DATA-QA=\"pagelet\"><p Data-Qa=\"object\">x</p></div>"},
      {"single-quoted values",
       "<div data-qa='pagelet'><p data-qa='object'>x</p></div>"},
      {"unquoted values", "<div data-qa=pagelet><p data-qa=object>x</p></div>"},
      {"entity-encoded values",
       "<div data-qa=\"&#112;agelet\"><p data-qa=\"obj&#x65;ct\">x</p>"
       "<p data-qa=\"pagelet&amp;\">y</p></div>"},
      {"spaces around the equals sign",
       "<div data-qa = \"pagelet\"><p>x</p></div>"},
      {"valueless and empty markers",
       "<div data-qa><p data-qa=\"\">x</p></div>"},
      {"two markers on one tag",
       "<div data-qa=\"object\" data-qa=\"pagelet\"><p>x</p></div>"},
      {"marker on <html>",
       "<html data-qa=\"pagelet\"><body><div><p>x</p></div></body></html>"},
      {"marker on a second <html>",
       "<html lang=en><body><div><p>x</p></div><html data-qa=\"pagelet\">"
       "</body>"},
      {"marker on <head>",
       "<html><head data-qa=\"pagelet\"><title>t</title></head><body><div>"
       "<p>x</p></div></body></html>"},
      {"marker on <body>", "<body data-qa=\"pagelet\"><div><p>x</p></div>"},
      {"marker on a second <body>",
       "<body class=a><div><p>x</p></div><body data-qa=\"pagelet\"><p>y</p>"},
      {"<body> after </body>",
       "<body><div><p>x</p></div></body><body data-qa=\"object\">"},
      {"both <body> tags marked",
       "<body data-qa=\"object\"><div><p>x</p></div><body data-qa=\"pagelet\">"},
      {"marker on an end tag", "<div><p>x</p></div data-qa=\"pagelet\">"},
      {"marker in bogus comments",
       "<div><!data-qa=\"pagelet\"><?xml data-qa=\"pagelet\"?><p>x</p></div>"},
      {"marker in a doctype",
       "<!DOCTYPE html data-qa=\"pagelet\"><div><p>x</p></div>"},
      {"marker before any element",
       "data-qa=\"pagelet\" <div data-qa=\"object\"><p>x</p></div>"},
      {"self-closing marked tags",
       "<div><br data-qa=\"object\"/><p data-qa=\"object\"/>x</div>"},
      {"marked raw-text element",
       "<div><script data-qa=\"object\">x</script><p>y</p></div>"},
      {"head-only tags before the body",
       "<title>t</title><meta data-qa=\"object\"><div data-qa=\"pagelet\">"
       "<p>x</p></div>"},
      {"last pagelet marker wins",
       "<div data-qa=\"pagelet\"><p>x</p><div data-qa=\"pagelet\"><p>y</p>"
       "</div></div>"},
      {"truncated inside the marked tag's value",
       "<div><p>x</p><div data-qa=\"pagelet"},
      {"truncated inside the marker name", "<div><p>x</p><div data-q"},
      {"truncated after the marker name", "<div><p>x</p><div data-qa"},
  };
}

TEST(LabelDiffTest, CraftedMarkerPlacementsMatchLegacy) {
  for (const Crafted& page : CraftedPages()) {
    ExpectSameLabels(LegacyLabels(page.html), ArenaLabels(page.html),
                     page.name);
  }
  // The agreement is not vacuous: markers in markup the builder merges
  // are found, and markers outside start tags or in dropped tags are not.
  auto find = [](const char* name) {
    for (const Crafted& page : CraftedPages()) {
      if (std::string_view(page.name) == name) return ArenaLabels(page.html);
    }
    ADD_FAILURE() << name;
    return Labels{};
  };
  EXPECT_EQ(find("marker on <html>").pagelet, 0);
  EXPECT_NE(find("marker on a second <body>").pagelet, html::kInvalidNode);
  EXPECT_EQ(find("marker on <head>").pagelet, html::kInvalidNode);
  EXPECT_EQ(find("marker in a comment").pagelet, html::kInvalidNode);
  EXPECT_EQ(find("marker in script raw text").pagelet, html::kInvalidNode);
  EXPECT_EQ(find("marker in another attribute's value").pagelet,
            html::kInvalidNode);
  EXPECT_EQ(find("two markers on one tag").objects.size(), 1u);
  EXPECT_EQ(find("entity-encoded values").objects.size(), 1u);
  EXPECT_NE(find("truncated inside the marked tag's value").pagelet,
            html::kInvalidNode);
}

// FindAttributeValues on trees a max_nodes cap stopped early: a marked tag,
// <html> or <body> past the cut was never handled and carries nothing.
TEST(LabelDiffTest, AttributeValuesMatchLegacyUnderEveryNodeCap) {
  html::HotParser parser;
  std::vector<Crafted> pages = CraftedPages();
  deepweb::SiteConfig config;
  config.seed = 5;
  pages.push_back({"simulator page", DeepWebSite(config).Query("music").html});
  for (const Crafted& page : pages) {
    for (int cap = 0; cap <= 24; ++cap) {
      html::ParseOptions options;
      options.max_nodes = cap;
      const std::string context =
          std::string(page.name) + " cap " + std::to_string(cap);
      SCOPED_TRACE(context);
      const html::TagTree legacy = html::ParseHtml(page.html, options);
      const html::ArenaTree& arena = parser.Parse(page.html, options);
      tree_diff::ExpectTreesIdentical(legacy, arena, context);
      ExpectSameAttributeValues(
          LegacyAttributeValues(legacy, kQaMarkerAttr),
          html::FindAttributeValues(page.html, arena, kQaMarkerAttr));
    }
  }
}

// Chaos mode keeps truncated bodies, and learning now parses them with
// HotParser: every prefix of one page of each class, and seeded single-byte
// mutations of each, must parse into the legacy tree, pass or fail the
// checked parse alike (same message and diagnostics), and label alike.
TEST(LabelDiffTest, EveryPrefixAndByteMutationAgreesWithLegacy) {
  FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  fleet_options.seed = 3;
  auto fleet = GenerateSiteFleet(fleet_options);
  std::vector<std::string> pages(kNumPageClasses);
  for (const QueryResponse& response : ProbeResponses(fleet[0], 9)) {
    std::string& slot = pages[static_cast<size_t>(response.page_class)];
    if (slot.empty()) slot = response.html;
  }
  html::HotParser parser;
  auto compare = [&](std::string_view input, const std::string& context) {
    const html::TagTree legacy = html::ParseHtml(input);
    tree_diff::ExpectTreesIdentical(legacy, parser.Parse(input), context,
                                    /*with_paths=*/false);
    ExpectSameLabels(LegacyLabels(input), ArenaLabels(input), context);
  };
  const char kMarkup[] = "<>/=\"'!-?& \n";
  int inputs = 0;
  for (int page_class = 0; page_class < kNumPageClasses; ++page_class) {
    const std::string& page = pages[static_cast<size_t>(page_class)];
    ASSERT_FALSE(page.empty()) << "no page of class " << page_class;
    for (size_t length = 0; length <= page.size(); ++length) {
      compare(std::string_view(page).substr(0, length),
              "class " + std::to_string(page_class) + " prefix " +
                  std::to_string(length));
      ++inputs;
    }
    Rng rng(1000 + static_cast<uint64_t>(page_class));
    for (int m = 0; m < 400; ++m) {
      std::string mutated = page;
      const size_t at = rng.UniformInt(mutated.size());
      mutated[at] = rng.UniformInt(2) == 0
                        ? kMarkup[rng.UniformInt(sizeof(kMarkup) - 1)]
                        : static_cast<char>(rng.UniformInt(256));
      compare(mutated, "class " + std::to_string(page_class) +
                           " mutation at " + std::to_string(at));
      ++inputs;
    }
  }
  EXPECT_GT(inputs, 5000);
}

}  // namespace
}  // namespace thor::deepweb
