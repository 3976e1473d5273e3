// The tag table: the well-known ids are pinned to their positions in one
// list, the lock-free table and the locked registry agree on every name in
// any casing, concurrent lookups and interning give each name one id, the
// deep-web simulator emits only well-known tags (so serving its pages
// never touches the registry's lock), and the registry is bounded: past
// kMaxDynamicTags names every new name shares kOverflowTag.

#include "src/html/tag_table.h"

#include <cctype>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/parser.h"
#include "src/util/rng.h"

namespace thor::html {
namespace {

// Today's ids, written out independently of THOR_HTML_WELL_KNOWN_TAGS so a
// reordered or renamed entry fails here.
const char* const kPinnedOrder[] = {
    "html",     "head",     "body",   "title",    "meta",     "link",
    "script",   "style",    "base",   "p",        "div",      "span",
    "table",    "tr",       "td",     "th",       "thead",    "tbody",
    "tfoot",    "ul",       "ol",     "li",       "dl",       "dt",
    "dd",       "a",        "img",    "br",       "hr",       "input",
    "form",     "select",   "option", "textarea", "b",        "i",
    "u",        "em",       "strong", "font",     "small",    "big",
    "h1",       "h2",       "h3",     "h4",       "h5",       "h6",
    "center",   "blockquote", "pre",  "code",     "nobr",     "label",
    "button",   "caption",  "col",    "colgroup", "frame",    "frameset",
    "iframe",   "map",      "area",   "param",    "object",   "embed",
    "noscript"};

TEST(TagTableTest, WellKnownIdsArePositionsInTheList) {
  TagId position = 0;
#define THOR_EXPECT_POSITION(ident, name) \
  EXPECT_EQ(Tag::k##ident, position) << name;  \
  EXPECT_EQ(TagName(Tag::k##ident), name);     \
  ++position;
  THOR_HTML_WELL_KNOWN_TAGS(THOR_EXPECT_POSITION)
#undef THOR_EXPECT_POSITION
  EXPECT_EQ(position, kWellKnownTagCount);

  ASSERT_EQ(std::size(kPinnedOrder), 67u);
  ASSERT_EQ(kWellKnownTagCount, 67);
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    EXPECT_EQ(TagName(id), kPinnedOrder[id]) << id;
  }
  EXPECT_EQ(Tag::kHtml, 0);
  EXPECT_EQ(Tag::kTable, 12);
  EXPECT_EQ(Tag::kNoscript, 66);
}

TEST(TagTableTest, LookupsAgreeForWellKnownNamesInAnyCase) {
  Rng rng(67);
  const int before = TagCount();
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    const std::string lower = kPinnedOrder[id];
    std::string upper = lower;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    std::vector<std::string> spellings = {lower, upper};
    for (int k = 0; k < 4; ++k) {
      std::string mixed = lower;
      for (char& c : mixed) {
        if (rng.UniformInt(2) == 0) c = static_cast<char>(std::toupper(c));
      }
      spellings.push_back(mixed);
    }
    for (const std::string& spelling : spellings) {
      EXPECT_EQ(FindTag(spelling), id) << spelling;
      EXPECT_EQ(InternTag(spelling), id) << spelling;
    }
    EXPECT_EQ(TagName(id), lower);
  }
  // Prefixes and extensions of well-known names are not well-known.
  EXPECT_EQ(FindTag("tabl"), -1);
  EXPECT_EQ(FindTag("tables"), -1);
  EXPECT_EQ(FindTag("blockquotes"), -1);
  EXPECT_EQ(FindTag(""), -1);
  EXPECT_EQ(TagCount(), before);  // nothing above was interned
}

TEST(TagTableTest, OtherNamesInternInArrivalOrderAfterTheList) {
  const TagId first = InternTag("x-arrival-first");
  const TagId second = InternTag("X-Arrival-Second");
  EXPECT_GE(first, kWellKnownTagCount);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(TagCount(), second + 1);
  EXPECT_EQ(FindTag("X-ARRIVAL-FIRST"), first);
  EXPECT_EQ(InternTag("x-arrival-second"), second);
  EXPECT_EQ(TagName(second), "x-arrival-second");
}

TEST(TagTableTest, ConcurrentLookupsAndInterningGiveOneIdPerName) {
  constexpr int kThreads = 4;
  constexpr int kShared = 200;
  constexpr int kPrivate = 100;
  const int before = TagCount();
  std::vector<std::map<std::string, TagId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int k = 0; k < kShared; ++k) {
        // Every thread races to intern the same fresh names, interleaved
        // with well-known lookups and names only this thread interns.
        const std::string shared = "shared-fresh-" + std::to_string(k);
        seen[t][shared] = InternTag(shared);
        const TagId known = static_cast<TagId>(
            rng.UniformInt(static_cast<uint64_t>(kWellKnownTagCount)));
        EXPECT_EQ(FindTag(kPinnedOrder[known]), known);
        EXPECT_EQ(TagName(known), kPinnedOrder[known]);
        if (k < kPrivate) {
          const std::string mine =
              "private-" + std::to_string(t) + "-" + std::to_string(k);
          seen[t][mine] = InternTag(mine);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::map<TagId, std::string> names_by_id;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [name, id] : seen[t]) {
      EXPECT_GE(id, kWellKnownTagCount) << name;
      EXPECT_EQ(FindTag(name), id) << name;
      EXPECT_EQ(TagName(id), name);
      auto [it, inserted] = names_by_id.emplace(id, name);
      if (!inserted) {
        EXPECT_EQ(it->second, name) << "id " << id;
      }
    }
    for (int k = 0; k < kShared; ++k) {
      const std::string shared = "shared-fresh-" + std::to_string(k);
      EXPECT_EQ(seen[t][shared], seen[0][shared]) << shared;
    }
  }
  EXPECT_EQ(names_by_id.size(),
            static_cast<size_t>(kShared + kThreads * kPrivate));
  EXPECT_EQ(TagCount(), before + kShared + kThreads * kPrivate);
}

TEST(TagTableTest, SimulatorPagesUseOnlyWellKnownTags) {
  deepweb::FleetOptions options;
  options.num_sites = 16;
  options.drift.seed = 2026;  // redesigns must not leave the list either
  std::vector<deepweb::DeepWebSite> fleet = deepweb::GenerateSiteFleet(options);
  const int before = TagCount();
  HotParser parser;
  size_t pages = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    deepweb::SetFleetEpoch(&fleet, epoch);
    for (deepweb::DeepWebSite& site : fleet) {
      for (const char* query : {"garden", "silver", "zzqqx", "river"}) {
        parser.Parse(site.Query(query).html);
        ++pages;
      }
    }
  }
  EXPECT_EQ(pages, 16u * 3u * 4u);
  EXPECT_EQ(TagCount(), before) << "a simulator tag was not well-known";
}

TEST(TagTableTest, ReservedOverflowNameResolvesToTheOverflowId) {
  EXPECT_EQ(kOverflowTag, kWellKnownTagCount + kMaxDynamicTags);
  EXPECT_EQ(TagName(kOverflowTag), kOverflowTagName);
  EXPECT_EQ(InternTag(kOverflowTagName), kOverflowTag);
  EXPECT_EQ(FindTag(kOverflowTagName), kOverflowTag);
  // No lexer spells it: the parser reads "<#overflow>" as text, not a tag.
  HotParser parser;
  const ArenaTree& tree = parser.Parse("<#overflow>x</#overflow>");
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    EXPECT_NE(tree.node(id).tag, kOverflowTag);
  }
}

// Fills the process-wide registry, so it runs last in this file.
TEST(TagTableTest, RegistryIsBoundedAndNamesPastTheCapShareOneId) {
  constexpr int kThreads = 4;
  constexpr int kFresh = kMaxDynamicTags + 1000;
  const TagId early = InternTag("cap-early-name");
  ASSERT_LT(early, kOverflowTag);
  const int before = TagCount();
  std::vector<std::vector<TagId>> ids(kThreads, std::vector<TagId>(kFresh));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      // Every thread races to intern the same fresh names, each starting
      // at its own offset, so the names that win the last slots vary.
      for (int k = 0; k < kFresh; ++k) {
        const int name = (k + t * (kFresh / kThreads)) % kFresh;
        ids[t][name] = InternTag("cap-fresh-" + std::to_string(name));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(TagCount(), kWellKnownTagCount + kMaxDynamicTags + 1);
  EXPECT_EQ(TagCount(), kOverflowTag + 1);
  std::map<TagId, std::string> names_by_id;
  int overflowed = 0;
  for (int k = 0; k < kFresh; ++k) {
    const std::string name = "cap-fresh-" + std::to_string(k);
    const TagId id = ids[0][k];
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t][k], id) << name;
    EXPECT_EQ(InternTag(name), id) << name;
    EXPECT_GE(id, kWellKnownTagCount) << name;
    EXPECT_LE(id, kOverflowTag) << name;
    if (id == kOverflowTag) {
      ++overflowed;
      EXPECT_EQ(FindTag(name), kOverflowTag) << name;
      continue;
    }
    EXPECT_EQ(FindTag(name), id) << name;
    EXPECT_EQ(TagName(id), name);
    EXPECT_TRUE(names_by_id.emplace(id, name).second) << "id " << id;
  }
  // Exactly the names past the cap share the one overflow id.
  EXPECT_EQ(static_cast<int>(names_by_id.size()), kOverflowTag - before);
  EXPECT_EQ(overflowed, kFresh - (kOverflowTag - before));
  // Ids below the cap did not move, and any further name overflows too.
  EXPECT_EQ(InternTag("cap-early-name"), early);
  EXPECT_EQ(TagName(early), "cap-early-name");
  EXPECT_EQ(FindTag("yet-another-fresh-name"), kOverflowTag);
  EXPECT_EQ(InternTag("yet-another-fresh-name"), kOverflowTag);
  EXPECT_EQ(TagCount(), kOverflowTag + 1);

  // Elements whose names overflowed still close at their end tags, on both
  // parsers alike: here they stay siblings instead of nesting.
  const char* page = "<body><x-late-a>one</x-late-a><x-late-b>two</x-late-b>";
  TagTree legacy = ParseHtml(page);
  HotParser parser;
  const ArenaTree& hot = parser.Parse(page);
  ASSERT_EQ(legacy.node_count(), hot.node_count());
  for (NodeId id = 0; id < legacy.node_count(); ++id) {
    EXPECT_EQ(legacy.node(id).tag, hot.node(id).tag) << id;
    EXPECT_EQ(legacy.node(id).parent, hot.node(id).parent) << id;
  }
  const NodeId body = legacy.ResolvePath("html/body");
  ASSERT_NE(body, kInvalidNode);
  ASSERT_EQ(legacy.Children(body).size(), 2u);
  for (NodeId child : legacy.Children(body)) {
    EXPECT_EQ(legacy.node(child).tag, kOverflowTag);
  }
  EXPECT_EQ(legacy.PathString(legacy.Children(body)[1]),
            "html/body/#overflow[2]");
}

}  // namespace
}  // namespace thor::html
