#include "src/html/entities.h"

#include <gtest/gtest.h>

#include "tests/oracle/serializer.h"

namespace thor::html {
namespace {

TEST(EntitiesTest, NamedLookup) {
  EXPECT_EQ(LookupNamedEntity("amp"), "&");
  EXPECT_EQ(LookupNamedEntity("lt"), "<");
  EXPECT_EQ(LookupNamedEntity("gt"), ">");
  EXPECT_EQ(LookupNamedEntity("quot"), "\"");
  EXPECT_EQ(LookupNamedEntity("nbsp"), "\xC2\xA0");
  EXPECT_EQ(LookupNamedEntity("copy"), "\xC2\xA9");
  EXPECT_EQ(LookupNamedEntity("eacute"), "\xC3\xA9");
  EXPECT_FALSE(LookupNamedEntity("nosuchentity").has_value());
  EXPECT_FALSE(LookupNamedEntity("").has_value());
  // Case matters for names: "AMP" is not registered.
  EXPECT_FALSE(LookupNamedEntity("AMP").has_value());
}

TEST(EntitiesTest, DecodeNamed) {
  EXPECT_EQ(DecodeEntities("a &amp; b"), "a & b");
  EXPECT_EQ(DecodeEntities("&lt;b&gt;"), "<b>");
  EXPECT_EQ(DecodeEntities("Tom &amp; Jerry &copy; 2003"),
            "Tom & Jerry \xC2\xA9 2003");
}

TEST(EntitiesTest, DecodeNamedWithoutSemicolon) {
  // Browsers accept legacy entities without the trailing semicolon.
  EXPECT_EQ(DecodeEntities("a &amp b"), "a & b");
}

TEST(EntitiesTest, DecodeNumericDecimal) {
  EXPECT_EQ(DecodeEntities("&#65;&#66;&#67;"), "ABC");
  EXPECT_EQ(DecodeEntities("&#8364;"), "\xE2\x82\xAC");  // euro sign
}

TEST(EntitiesTest, DecodeNumericHex) {
  EXPECT_EQ(DecodeEntities("&#x41;"), "A");
  EXPECT_EQ(DecodeEntities("&#X41;"), "A");
  EXPECT_EQ(DecodeEntities("&#x20AC;"), "\xE2\x82\xAC");
}

TEST(EntitiesTest, MalformedReferencesPassThrough) {
  EXPECT_EQ(DecodeEntities("AT&T"), "AT&T");
  EXPECT_EQ(DecodeEntities("a & b"), "a & b");
  EXPECT_EQ(DecodeEntities("100% &"), "100% &");
  EXPECT_EQ(DecodeEntities("&#;"), "&#;");
  EXPECT_EQ(DecodeEntities("&;"), "&;");
  EXPECT_EQ(DecodeEntities("&unknown;"), "&unknown;");
}

TEST(EntitiesTest, InvalidCodePointsBecomeReplacementChar) {
  EXPECT_EQ(DecodeEntities("&#0;"), "\xEF\xBF\xBD");
  EXPECT_EQ(DecodeEntities("&#xD800;"), "\xEF\xBF\xBD");  // surrogate
  EXPECT_EQ(DecodeEntities("&#x110000;"), "\xEF\xBF\xBD");
  EXPECT_EQ(DecodeEntities("&#99999999999;"), "\xEF\xBF\xBD");
}

TEST(EntitiesTest, AppendUtf8Boundaries) {
  std::string out;
  AppendUtf8(0x7F, &out);
  AppendUtf8(0x80, &out);
  AppendUtf8(0x7FF, &out);
  AppendUtf8(0x800, &out);
  AppendUtf8(0xFFFF, &out);
  AppendUtf8(0x10000, &out);
  AppendUtf8(0x10FFFF, &out);
  EXPECT_EQ(out,
            "\x7F"
            "\xC2\x80"
            "\xDF\xBF"
            "\xE0\xA0\x80"
            "\xEF\xBF\xBF"
            "\xF0\x90\x80\x80"
            "\xF4\x8F\xBF\xBF");
}

TEST(EntitiesTest, EscapeText) {
  EXPECT_EQ(EscapeText("a < b & c > \"d\""),
            "a &lt; b &amp; c &gt; &quot;d&quot;");
  EXPECT_EQ(EscapeText("plain"), "plain");
}

TEST(EntitiesTest, EscapeDecodeRoundTrip) {
  const std::string original = "<tag attr=\"v\"> & text";
  EXPECT_EQ(DecodeEntities(EscapeText(original)), original);
}

TEST(EntitiesTest, AdjacentAndEmbeddedReferences) {
  EXPECT_EQ(DecodeEntities("&lt;&lt;&gt;&gt;"), "<<>>");
  EXPECT_EQ(DecodeEntities("x&amp;y&amp;z"), "x&y&z");
}

}  // namespace
}  // namespace thor::html
