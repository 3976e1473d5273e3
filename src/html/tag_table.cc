#include "src/html/tag_table.h"

#include <array>
#include <cassert>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/util/strings.h"

namespace thor::html {

namespace {

// FNV-1a over lowercased bytes, so lookups never have to materialize a
// lowercased copy of the queried name.
constexpr uint64_t FoldedHash(std::string_view s) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : s) {
    hash ^= static_cast<unsigned char>(AsciiToLower(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

// --- Well-known tags: immutable, built at compile time -------------------

constexpr std::string_view kWellKnownNames[] = {
#define THOR_HTML_TAG_NAME(ident, name) name,
    THOR_HTML_WELL_KNOWN_TAGS(THOR_HTML_TAG_NAME)
#undef THOR_HTML_TAG_NAME
};
static_assert(std::size(kWellKnownNames) == kWellKnownTagCount);

// Open addressing with linear probing: slot -> well-known id, or -1. Under
// 30% full, so a lookup usually probes one slot.
constexpr size_t kSlotCount = 256;
constexpr std::array<int8_t, kSlotCount> kSlots = [] {
  std::array<int8_t, kSlotCount> slots{};
  slots.fill(-1);
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    size_t slot = FoldedHash(kWellKnownNames[id]) % kSlotCount;
    while (slots[slot] >= 0) slot = (slot + 1) % kSlotCount;
    slots[slot] = static_cast<int8_t>(id);
  }
  return slots;
}();

// `lower` is a canonical (lowercase) well-known name.
constexpr bool EqualsFolded(std::string_view raw, std::string_view lower) {
  if (raw.size() != lower.size()) return false;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (AsciiToLower(raw[i]) != lower[i]) return false;
  }
  return true;
}

// No lock, no atomic, no allocation: the table never changes.
constexpr TagId FindWellKnown(std::string_view raw) {
  for (size_t slot = FoldedHash(raw) % kSlotCount;;
       slot = (slot + 1) % kSlotCount) {
    TagId id = kSlots[slot];
    if (id < 0) return -1;
    if (EqualsFolded(raw, kWellKnownNames[id])) return id;
  }
}

static_assert([] {
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    if (FindWellKnown(kWellKnownNames[id]) != id) return false;
  }
  return true;
}(), "every well-known name must resolve to its own position");

const std::string& WellKnownName(TagId id) {
  // Leaked, like the registry, so no reader at exit sees a destroyed name.
  static const std::string* const names = [] {
    auto* strings = new std::string[kWellKnownTagCount];
    for (TagId i = 0; i < kWellKnownTagCount; ++i) {
      strings[i] = std::string(kWellKnownNames[i]);
    }
    return strings;
  }();
  return names[id];
}

// --- Every other name: the locked registry -------------------------------

struct FoldedHasher {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(FoldedHash(s));
  }
  size_t operator()(const std::string& s) const {
    return (*this)(std::string_view(s));
  }
};

struct FoldedEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreAsciiCase(a, b);
  }
};

// Names outside the well-known list; the id of `names[i]` is
// kWellKnownTagCount + i, in order of first arrival, for at most
// kMaxDynamicTags names. Later names all map to kOverflowTag and are not
// stored.
struct Registry {
  // Deque keeps `TagName` references stable while interning grows the
  // table; the map's string keys are the canonical lowercase spellings.
  std::deque<std::string> names;
  std::unordered_map<std::string, TagId, FoldedHasher, FoldedEqual> ids;
  // Shared across parse workers: ExtractBatch parses pages concurrently,
  // and a drifted page may carry a tag the registry has never seen.
  mutable std::shared_mutex mu;

  TagId Intern(std::string_view raw) {
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      auto it = ids.find(raw);
      if (it != ids.end()) return it->second;
      if (full()) return kOverflowTag;
    }
    std::unique_lock<std::shared_mutex> lock(mu);
    auto it = ids.find(raw);
    if (it != ids.end()) return it->second;
    if (full()) return kOverflowTag;
    TagId id = kWellKnownTagCount + static_cast<TagId>(names.size());
    names.push_back(AsciiLower(raw));
    ids.emplace(names.back(), id);
    return id;
  }

  TagId Find(std::string_view raw) const {
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = ids.find(raw);
    if (it != ids.end()) return it->second;
    return full() ? kOverflowTag : -1;
  }

  // Caller holds `mu`.
  bool full() const {
    return names.size() >= static_cast<size_t>(kMaxDynamicTags);
  }
};

Registry& GetRegistry() {
  static Registry& registry = *new Registry();
  return registry;
}

}  // namespace

TagId InternTag(std::string_view name) {
  TagId id = FindWellKnown(name);
  if (id >= 0) return id;
  if (name == kOverflowTagName) return kOverflowTag;
  return GetRegistry().Intern(name);
}

TagId FindTag(std::string_view name) {
  TagId id = FindWellKnown(name);
  if (id >= 0) return id;
  if (name == kOverflowTagName) return kOverflowTag;
  return GetRegistry().Find(name);
}

const std::string& TagName(TagId id) {
  assert(id >= 0 && id <= kOverflowTag);
  if (id < kWellKnownTagCount) return WellKnownName(id);
  if (id == kOverflowTag) {
    static const std::string* const name =
        new std::string(kOverflowTagName);
    return *name;
  }
  const Registry& registry = GetRegistry();
  std::shared_lock<std::shared_mutex> lock(registry.mu);
  size_t index = static_cast<size_t>(id - kWellKnownTagCount);
  assert(index < registry.names.size());
  return registry.names[index];
}

int TagCount() {
  const Registry& registry = GetRegistry();
  std::shared_lock<std::shared_mutex> lock(registry.mu);
  return kWellKnownTagCount + static_cast<int>(registry.names.size()) +
         (registry.full() ? 1 : 0);
}

char TagPathSymbol(TagId id) {
  // Bijective for ids < 62, nearly-unique beyond; the distance metric only
  // needs symbols to rarely collide.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  return kAlphabet[static_cast<size_t>(id) % (sizeof(kAlphabet) - 1)];
}

bool IsVoidTag(TagId id) {
  return id == Tag::kBr || id == Tag::kImg || id == Tag::kHr ||
         id == Tag::kInput || id == Tag::kMeta || id == Tag::kLink ||
         id == Tag::kBase || id == Tag::kCol || id == Tag::kArea ||
         id == Tag::kParam || id == Tag::kEmbed || id == Tag::kFrame;
}

bool IsRawTextTag(TagId id) {
  return id == Tag::kScript || id == Tag::kStyle || id == Tag::kTextarea ||
         id == Tag::kTitle;
}

bool ClosesOnOpen(TagId open_tag, TagId incoming) {
  // <p> is closed by any block-level start tag.
  if (open_tag == Tag::kP) {
    return incoming == Tag::kP || incoming == Tag::kDiv ||
           incoming == Tag::kTable || incoming == Tag::kUl ||
           incoming == Tag::kOl || incoming == Tag::kLi ||
           incoming == Tag::kBlockquote || incoming == Tag::kPre ||
           incoming == Tag::kHr || incoming == Tag::kH1 ||
           incoming == Tag::kH2 || incoming == Tag::kH3 ||
           incoming == Tag::kH4 || incoming == Tag::kH5 ||
           incoming == Tag::kH6 || incoming == Tag::kForm ||
           incoming == Tag::kDl;
  }
  if (open_tag == Tag::kLi) return incoming == Tag::kLi;
  if (open_tag == Tag::kDt || open_tag == Tag::kDd) {
    return incoming == Tag::kDt || incoming == Tag::kDd;
  }
  if (open_tag == Tag::kOption) return incoming == Tag::kOption;
  if (open_tag == Tag::kTr) {
    return incoming == Tag::kTr || incoming == Tag::kThead ||
           incoming == Tag::kTbody || incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kTd || open_tag == Tag::kTh) {
    return incoming == Tag::kTd || incoming == Tag::kTh ||
           incoming == Tag::kTr || incoming == Tag::kThead ||
           incoming == Tag::kTbody || incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kThead || open_tag == Tag::kTbody ||
      open_tag == Tag::kTfoot) {
    return incoming == Tag::kThead || incoming == Tag::kTbody ||
           incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kHead) return incoming == Tag::kBody;
  return false;
}

bool IsScopeBoundary(TagId id) {
  return id == Tag::kTable || id == Tag::kHtml || id == Tag::kBody ||
         id == Tag::kHead;
}

bool IsInlineTag(TagId id) {
  return id == Tag::kA || id == Tag::kB || id == Tag::kI || id == Tag::kU ||
         id == Tag::kEm || id == Tag::kStrong || id == Tag::kFont ||
         id == Tag::kSpan || id == Tag::kSmall || id == Tag::kBig ||
         id == Tag::kCode || id == Tag::kNobr || id == Tag::kLabel;
}

}  // namespace thor::html
