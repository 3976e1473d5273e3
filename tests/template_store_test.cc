#include "src/serve/template_store.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/html/tag_table.h"
#include "src/serve/template_codec.h"
#include "src/util/failpoint.h"

namespace thor::serve {
namespace {

namespace fs = std::filesystem;

// Two small, distinct, hand-built registries: store tests never need the
// full pipeline, just registries whose THORTPL1 bytes tell them apart.
core::TemplateRegistry MakeRegistry(const std::string& path, int fanout,
                                    int support, double max_distance,
                                    const std::vector<std::string>& tags) {
  core::ExtractionTemplate tmpl;
  tmpl.path_symbols = path;
  tmpl.prototype.path_symbols = path;
  tmpl.prototype.fanout = fanout;
  tmpl.prototype.depth = static_cast<int>(path.size());
  tmpl.prototype.num_nodes = 5 * fanout;
  tmpl.support = support;
  tmpl.max_distance = max_distance;
  std::vector<ir::VectorEntry> known;
  for (const std::string& tag : tags) {
    known.push_back({html::InternTag(tag), 1.0});
  }
  tmpl.stable_tags = ir::SparseVector::FromPairs({known.front(), known.back()});
  tmpl.known_tags = ir::SparseVector::FromPairs(std::move(known));
  return core::TemplateRegistry::FromTemplates({tmpl});
}

core::TemplateRegistry RegistryV1() {
  return MakeRegistry("abm", 4, 5, 0.3, {"html", "body", "table"});
}

core::TemplateRegistry RegistryV2() {
  return MakeRegistry("abcu", 9, 12, 0.4, {"html", "body", "div", "ul", "li"});
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("thor_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

TEST(TemplateStoreTest, OpensEmptyStoreAndReportsNotFound) {
  auto store = TemplateStore::Open(FreshDir("empty"));
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(store->Sites().empty());
  EXPECT_EQ(store->Generation("site0"), 0);
  auto loaded = store->Load("site0");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(TemplateStoreTest, PutLoadRoundTripsAcrossReopen) {
  std::string dir = FreshDir("roundtrip");
  {
    auto store = TemplateStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
    EXPECT_EQ(store->Generation("site0"), 1);
    auto loaded = store->Load("site0");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->generation, 1);
    EXPECT_EQ(EncodeTemplates(loaded->registry), EncodeTemplates(RegistryV1()));
  }
  // A second process opening the same directory sees the committed state.
  auto reopened = TemplateStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Sites(), std::vector<std::string>{"site0"});
  auto loaded = reopened->Load("site0");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(EncodeTemplates(loaded->registry), EncodeTemplates(RegistryV1()));
}

TEST(TemplateStoreTest, GenerationsAdvanceAndOldFilesAreCollected) {
  std::string dir = FreshDir("generations");
  auto store = TemplateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  ASSERT_TRUE(store->Put("site0", RegistryV2()).ok());
  EXPECT_EQ(store->Generation("site0"), 2);
  auto loaded = store->Load("site0");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 2);
  EXPECT_EQ(EncodeTemplates(loaded->registry), EncodeTemplates(RegistryV2()));
  // Only the live generation and the manifest remain on disk.
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "MANIFEST.json" || name == "site0.g2.tpl") << name;
  }
  EXPECT_EQ(files, 2);
}

TEST(TemplateStoreTest, StoresManySitesIndependently) {
  auto store = TemplateStore::Open(FreshDir("multi"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("alpha", RegistryV1()).ok());
  ASSERT_TRUE(store->Put("beta", RegistryV2()).ok());
  EXPECT_EQ(store->Sites(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(EncodeTemplates(store->Load("alpha")->registry),
            EncodeTemplates(RegistryV1()));
  EXPECT_EQ(EncodeTemplates(store->Load("beta")->registry),
            EncodeTemplates(RegistryV2()));
}

// Regression: site names may contain dots, so Put("example")'s GC used to
// prefix-match (and delete) "example.gov.g1.tpl" — another site's
// committed generation — leaving the manifest pointing at a missing file.
TEST(TemplateStoreTest, PutGcSparesOtherSitesSharingADottedPrefix) {
  std::string dir = FreshDir("dotted");
  auto store = TemplateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("example.gov", RegistryV2()).ok());
  ASSERT_TRUE(store->Put("example", RegistryV1()).ok());
  ASSERT_TRUE(store->Put("example", RegistryV2()).ok());
  auto victim = store->Load("example.gov");
  ASSERT_TRUE(victim.ok()) << victim.status();
  EXPECT_EQ(victim->generation, 1);
  EXPECT_EQ(EncodeTemplates(victim->registry), EncodeTemplates(RegistryV2()));
  // A cold reopen (fresh manifest parse) still serves both sites.
  auto reopened = TemplateStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->Load("example.gov").ok());
  EXPECT_TRUE(reopened->Load("example").ok());
}

TEST(TemplateStoreTest, RejectsHostileSiteNames) {
  auto store = TemplateStore::Open(FreshDir("names"));
  ASSERT_TRUE(store.ok());
  for (const char* name :
       {"", "../evil", "a/b", "/abs", ".hidden", "sp ace", "tab\tname"}) {
    Status st = store->Put(name, RegistryV1());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "\"" << name
                                                       << "\"";
  }
  EXPECT_FALSE(IsValidSiteName("../evil"));
  EXPECT_TRUE(IsValidSiteName("site0.example-com_1"));
}

TEST(TemplateStoreTest, DetectsTamperedTemplateFile) {
  std::string dir = FreshDir("tamper");
  auto store = TemplateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  // Swap the payload behind the manifest's back (a well-formed blob is
  // fine — the manifest checksum catches it before the decoder runs).
  {
    std::ofstream out(fs::path(dir) / "site0.g1.tpl",
                      std::ios::binary | std::ios::trunc);
    out << EncodeTemplates(RegistryV2());
  }
  auto reopened = TemplateStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  auto loaded = reopened->Load("site0");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(TemplateStoreTest, DetectsTruncatedTemplateFile) {
  std::string dir = FreshDir("truncate");
  auto store = TemplateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  fs::path file = fs::path(dir) / "site0.g1.tpl";
  fs::resize_file(file, fs::file_size(file) / 2);
  auto loaded = TemplateStore::Open(dir)->Load("site0");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(TemplateStoreTest, MissingTemplateFileIsATypedErrorNotACrash) {
  std::string dir = FreshDir("missing");
  auto store = TemplateStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  fs::remove(fs::path(dir) / "site0.g1.tpl");
  auto loaded = store->Load("site0");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
}

TEST(TemplateStoreTest, CorruptManifestIsATypedErrorNotACrash) {
  std::string dir = FreshDir("manifest");
  {
    auto store = TemplateStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  }
  // A well-formed entry except for its site/file pair, which must be
  // exactly <site>.g<generation>.tpl: nothing else may steer a read.
  auto entry = [](const std::string& site, int generation,
                  const std::string& file) {
    return R"({"format":"thor-store","version":1,"sites":[{"site":")" +
           site + R"(","generation":)" + std::to_string(generation) +
           R"(,"file":")" + file + R"(","checksum":"0"}]})";
  };
  for (const std::string& garbage :
       {std::string("not json at all"), std::string("{\"format\":\"other\"}"),
        std::string("{\"format\":"),
        std::string("{\"format\":\"thor-store\",\"sites\":[{\"site\":42}]}"),
        entry("site0", 1, "../../x"), entry("site0", 1, "site0.g1.json"),
        entry("site0", 2, "site0.g1.tpl"),
        entry("../evil", 1, "../evil.g1.tpl")}) {
    std::ofstream out(fs::path(dir) / "MANIFEST.json",
                      std::ios::binary | std::ios::trunc);
    out << garbage;
    out.close();
    auto reopened = TemplateStore::Open(dir);
    ASSERT_FALSE(reopened.ok()) << garbage;
    EXPECT_EQ(reopened.status().code(), StatusCode::kParseError) << garbage;
  }
  // Control: the same entry naming its one legal file opens fine, so the
  // rejections above are about the site/file pair, not the JSON.
  std::ofstream(fs::path(dir) / "MANIFEST.json",
                std::ios::binary | std::ios::trunc)
      << entry("site0", 1, "site0.g1.tpl");
  EXPECT_TRUE(TemplateStore::Open(dir).ok());
}

// The acceptance contract: a process killed at any failpoint inside Put
// leaves the store loading either the old or the new generation — never a
// torn or partial one. Each store.put.* failpoint is armed as an error
// (the in-process stand-in for a crash at that boundary: the remaining
// steps never run), followed by an unarmed control Put.
TEST(TemplateStoreTest, KillBetweenWritesLoadsOldOrNewNeverTorn) {
  const std::string old_bytes = EncodeTemplates(RegistryV1());
  const std::string new_bytes = EncodeTemplates(RegistryV2());
  struct Step {
    const char* failpoint;  ///< null: clean control Put
    bool committed;         ///< is the new generation durable at this point?
  };
  const Step steps[] = {
      {"store.put.serialize", false},
      {"store.put.template_rename", false},
      {"store.put.template_committed", false},
      {"store.put.manifest_rename", false},
      {"store.put.manifest_committed", true},
      {"store.put.gc", true},
      {nullptr, true},
  };
  auto* failpoints = FailpointRegistry::Global();
  int step_index = 0;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.failpoint == nullptr ? "(clean)" : step.failpoint);
    std::string dir = FreshDir("kill_step" + std::to_string(step_index++));
    {
      auto store = TemplateStore::Open(dir);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
      if (step.failpoint != nullptr) {
        int64_t hits_before = failpoints->HitCount(step.failpoint);
        ASSERT_TRUE(failpoints->Arm(step.failpoint, "error").ok());
        Status st = store->Put("site0", RegistryV2());
        failpoints->Disarm(step.failpoint);
        EXPECT_FALSE(st.ok());
        // The Put must actually have crossed this failpoint.
        EXPECT_GT(failpoints->HitCount(step.failpoint), hits_before);
      } else {
        ASSERT_TRUE(store->Put("site0", RegistryV2()).ok());
      }
    }
    // "Reboot": a fresh process opens whatever survived on disk.
    auto reopened = TemplateStore::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto loaded = reopened->Load("site0");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    std::string got = EncodeTemplates(loaded->registry);
    EXPECT_TRUE(got == old_bytes || got == new_bytes)
        << "loaded a torn registry";
    // Once the manifest rename completed, the new generation is
    // committed; before it, the old one must still be served.
    if (!step.committed) {
      EXPECT_EQ(got, old_bytes);
      EXPECT_EQ(loaded->generation, 1);
    } else {
      EXPECT_EQ(got, new_bytes);
      EXPECT_EQ(loaded->generation, 2);
    }
    // A later Put on the recovered store works and collects any orphans.
    ASSERT_TRUE(reopened->Put("site0", RegistryV2()).ok());
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::string name = entry.path().filename().string();
      EXPECT_TRUE(name == "MANIFEST.json" ||
                  name.rfind("site0.g", 0) == 0)
          << name;
    }
  }
}

// Readers racing a writer that Puts (and GCs old generations) must always
// observe a complete old-or-new registry. Run under TSAN this also proves
// the store's internal locking: Load deliberately reads the template file
// outside the lock and recovers via the manifest when GC wins the race.
TEST(TemplateStoreTest, ConcurrentLoadsDuringPutServeOldOrNew) {
  auto store = TemplateStore::Open(FreshDir("stress"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  const std::string old_bytes = EncodeTemplates(RegistryV1());
  const std::string new_bytes = EncodeTemplates(RegistryV2());
  std::atomic<bool> stop{false};
  std::atomic<int> torn_loads{0};
  std::atomic<int> successful_loads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto loaded = store->Load("site0");
        // A Load may lose the retry race against a fast writer (a typed
        // error, not corruption); what it must never do is return bytes
        // that are neither the old nor the new generation.
        if (!loaded.ok()) continue;
        ++successful_loads;
        std::string got = EncodeTemplates(loaded->registry);
        if (got != old_bytes && got != new_bytes) ++torn_loads;
      }
    });
  }
  constexpr int kPuts = 40;
  for (int i = 0; i < kPuts; ++i) {
    auto next = (i % 2 == 0) ? RegistryV2() : RegistryV1();
    ASSERT_TRUE(store->Put("site0", next).ok()) << i;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn_loads.load(), 0);
  EXPECT_GT(successful_loads.load(), 0);
  EXPECT_EQ(store->Generation("site0"), kPuts + 1);
  auto final_load = store->Load("site0");
  ASSERT_TRUE(final_load.ok()) << final_load.status();
}

// Load is the shared read loop (ReadRaw) plus decoding: store.load.read
// fires on every read attempt, store.load.deserialize only once the bytes
// passed their checksum and before DecodeTemplates runs.
TEST(TemplateStoreTest, LoadFailpointsFireAroundTheSharedReadLoop) {
  auto store = TemplateStore::Open(FreshDir("load_failpoints"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("site0", RegistryV1()).ok());
  auto* failpoints = FailpointRegistry::Global();

  ASSERT_TRUE(failpoints->Arm("store.load.read", "error").ok());
  EXPECT_FALSE(store->Load("site0").ok());
  ASSERT_TRUE(failpoints->Arm("store.load.read", "error").ok());
  EXPECT_FALSE(store->ReadRaw("site0").ok());
  failpoints->Disarm("store.load.read");

  int64_t hits_before = failpoints->HitCount("store.load.deserialize");
  ASSERT_TRUE(failpoints->Arm("store.load.deserialize", "error").ok());
  auto raw = store->ReadRaw("site0");
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(raw->payload, EncodeTemplates(RegistryV1()));
  EXPECT_EQ(failpoints->HitCount("store.load.deserialize"), hits_before);
  EXPECT_FALSE(store->Load("site0").ok());
  failpoints->Disarm("store.load.deserialize");
  auto loaded = store->Load("site0");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeTemplates(loaded->registry), EncodeTemplates(RegistryV1()));
}

TEST(Fnv1a64Test, MatchesKnownVectorsAndSeparatesInputs) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("acb"));
}

}  // namespace
}  // namespace thor::serve
