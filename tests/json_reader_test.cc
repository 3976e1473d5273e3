#include "src/util/json_reader.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/util/json.h"
#include "src/util/rng.h"

namespace thor {
namespace {

TEST(JsonReaderTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->IsNull());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("3.25")->AsDouble(), 3.25);
  EXPECT_EQ(JsonValue::Parse("-17")->AsInt(), -17);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonReaderTest, WhitespaceTolerated) {
  auto value = JsonValue::Parse("  { \"a\" : [ 1 , 2 ] }  ");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->IsObject());
  const JsonValue* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 2u);
  EXPECT_EQ(a->items()[1].AsInt(), 2);
}

TEST(JsonReaderTest, NestedStructures) {
  auto value = JsonValue::Parse(
      R"({"templates":[{"name":"t1","dims":[["table",3]]}],"n":1})");
  ASSERT_TRUE(value.ok());
  const JsonValue* templates = value->Find("templates");
  ASSERT_NE(templates, nullptr);
  ASSERT_EQ(templates->items().size(), 1u);
  const JsonValue& first = templates->items()[0];
  EXPECT_EQ(first.Find("name")->AsString(), "t1");
  const JsonValue& dim = first.Find("dims")->items()[0];
  EXPECT_EQ(dim.items()[0].AsString(), "table");
  EXPECT_EQ(dim.items()[1].AsInt(), 3);
}

TEST(JsonReaderTest, StringEscapes) {
  auto value = JsonValue::Parse(R"("a\"b\\c\nd\tA")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "a\"b\\c\nd\tA");
}

TEST(JsonReaderTest, UnicodeEscapeToUtf8) {
  auto value = JsonValue::Parse(R"("\u00e9\u20ac")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "\xC3\xA9\xE2\x82\xAC");
  // Raw UTF-8 passes through unchanged, and \u0000 stays one NUL byte.
  EXPECT_EQ(JsonValue::Parse(R"("é€")")->AsString(), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(JsonValue::Parse(R"("a\u0000b")")->AsString(),
            std::string("a\0b", 3));
}

/// Decodes one JSON string document, failing the test on a parse error.
std::string DecodeString(std::string_view json) {
  auto value = JsonValue::Parse(json);
  EXPECT_TRUE(value.ok()) << json;
  return value.ok() ? value->AsString() : std::string();
}

TEST(JsonReaderTest, SurrogatePairDecodesToOneCodePoint) {
  // U+1F600, as Python's json.dumps escapes it by default.
  EXPECT_EQ(DecodeString(R"("\ud83d\ude00")"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(DecodeString(R"("\uD83D\uDE00")"), "\xF0\x9F\x98\x80");
  // The first and last supplementary code points.
  EXPECT_EQ(DecodeString(R"("\ud800\udc00")"), "\xF0\x90\x80\x80");
  EXPECT_EQ(DecodeString(R"("\udbff\udfff")"), "\xF4\x8F\xBF\xBF");
  EXPECT_EQ(DecodeString(R"("x\ud83d\ude00y")"), "x\xF0\x9F\x98\x80y");
}

TEST(JsonReaderTest, LoneSurrogateDecodesToReplacementCharacter) {
  const std::string kReplacement = "\xEF\xBF\xBD";
  EXPECT_EQ(DecodeString(R"("\ud83d")"), kReplacement);
  EXPECT_EQ(DecodeString(R"("\ud83dx")"), kReplacement + "x");
  EXPECT_EQ(DecodeString(R"("\ude00")"), kReplacement);
  // A high surrogate followed by an escape that is not a low surrogate:
  // the high one is replaced, the next escape decodes as itself.
  EXPECT_EQ(DecodeString(R"("\ud83d\u0041")"), kReplacement + "A");
  EXPECT_EQ(DecodeString(R"("\ud83d\n")"), kReplacement + "\n");
  EXPECT_EQ(DecodeString(R"("\ud83d\ud83d\ude00")"),
            kReplacement + "\xF0\x9F\x98\x80");
  EXPECT_EQ(DecodeString(R"("\ude00\ud83d")"), kReplacement + kReplacement);
  // A malformed escape after a high surrogate is still an error.
  EXPECT_FALSE(JsonValue::Parse(R"("\ud83d\uzzzz")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\ud83d\ud")").ok());
}

TEST(JsonReaderTest, RandomBytesRoundTripThroughEscape) {
  Rng rng(20261019);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string raw;
    const size_t length = static_cast<size_t>(rng.UniformInt(200));
    for (size_t i = 0; i < length; ++i) {
      // Bias toward the bytes that end a run: quote, backslash, controls.
      switch (rng.UniformInt(8)) {
        case 0:
          raw.push_back('"');
          break;
        case 1:
          raw.push_back('\\');
          break;
        case 2:
          raw.push_back(static_cast<char>(rng.UniformInt(0x20)));
          break;
        default:
          raw.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    }
    const std::string json = "\"" + JsonWriter::Escape(raw) + "\"";
    auto value = JsonValue::Parse(json);
    ASSERT_TRUE(value.ok()) << "trial " << trial;
    ASSERT_EQ(value->AsString(), raw) << "trial " << trial;
  }
}

TEST(JsonReaderTest, TakeStringMovesTheValueOut) {
  auto value = JsonValue::Parse(R"({"html":"<p>x</p>"})");
  ASSERT_TRUE(value.ok());
  JsonValue* html = value->Find("html");
  ASSERT_NE(html, nullptr);
  EXPECT_EQ(html->TakeString(), "<p>x</p>");
  EXPECT_EQ(html->AsString(), "");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nan").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
}

TEST(JsonReaderTest, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonReaderTest, FindOnNonObject) {
  auto value = JsonValue::Parse("[1]");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("x"), nullptr);
}

TEST(JsonReaderTest, RoundTripsWriterOutput) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("name").String("path \"x\"\nline");
  writer.Key("values").BeginArray();
  writer.Int(1);
  writer.Double(2.5);
  writer.Bool(false);
  writer.Null();
  writer.EndArray();
  writer.EndObject();
  auto value = JsonValue::Parse(writer.str());
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("name")->AsString(), "path \"x\"\nline");
  const auto& items = value->Find("values")->items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(items[1].AsDouble(), 2.5);
  EXPECT_FALSE(items[2].AsBool());
  EXPECT_TRUE(items[3].IsNull());
}

}  // namespace
}  // namespace thor
