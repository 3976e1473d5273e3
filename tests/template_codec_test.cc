#include "src/serve/template_codec.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/template_registry.h"
#include "src/html/tag_table.h"
#include "src/ir/sparse_vector.h"
#include "src/serve/template_store.h"  // Fnv1a64

namespace thor::serve {
namespace {

// A registry exercising every field the codec carries: two templates,
// non-default thresholds, weights that do not survive decimal formatting,
// an empty stable vector on the second template, and the shared id of tag
// names that arrived after the tag registry filled (kOverflowTag).
core::TemplateRegistry MakeRegistry() {
  std::vector<core::ExtractionTemplate> templates;
  core::ExtractionTemplate first;
  first.path_symbols = "abT";
  first.prototype.path_symbols = "abTt";
  first.prototype.fanout = 7;
  first.prototype.depth = 4;
  first.prototype.num_nodes = 41;
  first.support = 9;
  first.max_distance = 0.1 + 0.2;  // 0.30000000000000004 — not printable
  first.min_stable_match = 1.0 / 3.0;
  first.stable_tags = ir::SparseVector::FromPairs(
      {{html::InternTag("html"), 1.0}, {html::InternTag("table"), 2.0}});
  first.known_tags = ir::SparseVector::FromPairs(
      {{html::InternTag("html"), 1.0},
       {html::InternTag("body"), 1.0},
       {html::InternTag("table"), 0.5}});
  templates.push_back(first);
  core::ExtractionTemplate second;
  second.path_symbols = "ab";
  second.prototype.path_symbols = "ab";
  second.support = 1;
  second.known_tags =
      ir::SparseVector::FromPairs({{html::kOverflowTag, 1.0}});
  templates.push_back(second);
  return core::TemplateRegistry::FromTemplates(std::move(templates));
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(TemplateCodecTest, RoundTripsEveryFieldBitExactly) {
  core::TemplateRegistry original = MakeRegistry();
  std::string blob = EncodeTemplates(original);
  ASSERT_EQ(blob.compare(0, 8, "THORTPL1"), 0);
  auto decoded = DecodeTemplates(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& got = decoded->templates();
  const auto& want = original.templates();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].path_symbols, want[i].path_symbols);
    EXPECT_EQ(got[i].prototype.path_symbols, want[i].prototype.path_symbols);
    EXPECT_EQ(got[i].prototype.fanout, want[i].prototype.fanout);
    EXPECT_EQ(got[i].prototype.depth, want[i].prototype.depth);
    EXPECT_EQ(got[i].prototype.num_nodes, want[i].prototype.num_nodes);
    EXPECT_EQ(got[i].support, want[i].support);
    // Doubles survive bit-exactly.
    EXPECT_TRUE(BitEqual(got[i].max_distance, want[i].max_distance));
    EXPECT_TRUE(BitEqual(got[i].min_stable_match, want[i].min_stable_match));
    ASSERT_EQ(got[i].stable_tags.entries().size(),
              want[i].stable_tags.entries().size());
    for (size_t e = 0; e < want[i].stable_tags.entries().size(); ++e) {
      EXPECT_EQ(got[i].stable_tags.entries()[e].id,
                want[i].stable_tags.entries()[e].id);
      EXPECT_TRUE(BitEqual(got[i].stable_tags.entries()[e].weight,
                           want[i].stable_tags.entries()[e].weight));
    }
    ASSERT_EQ(got[i].known_tags.entries().size(),
              want[i].known_tags.entries().size());
    for (size_t e = 0; e < want[i].known_tags.entries().size(); ++e) {
      EXPECT_EQ(got[i].known_tags.entries()[e].id,
                want[i].known_tags.entries()[e].id);
      EXPECT_TRUE(BitEqual(got[i].known_tags.entries()[e].weight,
                           want[i].known_tags.entries()[e].weight));
    }
  }
}

TEST(TemplateCodecTest, RoundTripsAnEmptyRegistry) {
  core::TemplateRegistry empty;
  std::string blob = EncodeTemplates(empty);
  auto decoded = DecodeTemplates(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->empty());
}

TEST(TemplateCodecTest, RejectsForeignBytes) {
  EXPECT_EQ(DecodeTemplates("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(DecodeTemplates("THORTP").status().code(),  // shorter than magic
            StatusCode::kParseError);
  // A JSON templates document is long enough to reach the magic check,
  // and fails it.
  auto json = DecodeTemplates(
      R"({"format":"thor-templates","version":1,"templates":[]})");
  EXPECT_EQ(json.status().code(), StatusCode::kParseError);
  EXPECT_NE(json.status().message().find("bad magic"), std::string::npos);
}

TEST(TemplateCodecTest, RejectsUnsupportedVersion) {
  std::string blob = EncodeTemplates(MakeRegistry());
  blob[8] = 2;  // bump the version field...
  // ...and re-seal the checksum so only the version is wrong.
  std::string body = blob.substr(0, blob.size() - 8);
  uint64_t checksum = Fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((checksum >> (8 * i)) & 0xFF);
  }
  auto decoded = DecodeTemplates(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

// Fuzz-style regression, exhaustive rather than random: every truncated
// prefix of a valid blob must decode to a typed ParseError — never a
// crash, never a partially-built registry.
TEST(TemplateCodecTest, EveryTruncatedPrefixIsATypedError) {
  std::string blob = EncodeTemplates(MakeRegistry());
  ASSERT_GT(blob.size(), 40u);
  for (size_t len = 0; len < blob.size(); ++len) {
    auto decoded = DecodeTemplates(std::string_view(blob).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << len;
  }
}

// Every single-byte corruption (all 255 wrong values would be slow; one
// XOR per position flips at least one bit everywhere) must fail the
// checksum — which is verified before any field is parsed, so a corrupt
// length can never send the parser out of bounds.
TEST(TemplateCodecTest, EverySingleByteCorruptionIsATypedError) {
  const std::string blob = EncodeTemplates(MakeRegistry());
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string corrupt = blob;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    auto decoded = DecodeTemplates(corrupt);
    ASSERT_FALSE(decoded.ok()) << "byte " << pos << " corruption decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << pos;
  }
}

// Appending bytes keeps the blob magic-valid but breaks the checksum (the
// trailer is no longer where the length says it is).
TEST(TemplateCodecTest, TrailingGarbageIsATypedError) {
  std::string blob = EncodeTemplates(MakeRegistry());
  blob += "garbage";
  auto decoded = DecodeTemplates(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace thor::serve
