#include "tests/oracle/serializer.h"

#include <gtest/gtest.h>

#include "src/deepweb/site_generator.h"
#include "tests/oracle/parser.h"

namespace thor::html {
namespace {

// Structural isomorphism: same tags, same text, same shape.
void ExpectIsomorphic(const TagTree& a, NodeId na, const TagTree& b,
                      NodeId nb) {
  const Node& x = a.node(na);
  const Node& y = b.node(nb);
  ASSERT_EQ(x.kind, y.kind);
  if (x.kind == NodeKind::kContent) {
    EXPECT_EQ(x.text, y.text);
    return;
  }
  EXPECT_EQ(x.tag, y.tag);
  ASSERT_EQ(x.children.size(), y.children.size())
      << "at " << a.PathString(na);
  for (size_t i = 0; i < x.children.size(); ++i) {
    ExpectIsomorphic(a, x.children[i], b, y.children[i]);
  }
}

TEST(SerializerTest, BasicOutput) {
  TagTree tree;
  NodeId body = tree.AddTag(tree.root(), Tag::kBody);
  NodeId p = tree.AddTag(body, Tag::kP, {{"class", "x"}});
  tree.AddContent(p, "hello");
  tree.AddTag(p, Tag::kBr);
  tree.FinalizeDerived();
  EXPECT_EQ(Serialize(tree),
            "<html><body><p class=\"x\">hello<br></p></body></html>");
}

TEST(SerializerTest, VoidElementsGetNoEndTag) {
  TagTree tree = ParseHtml("<div><img src='a'><hr></div>");
  std::string out = Serialize(tree);
  EXPECT_EQ(out.find("</img>"), std::string::npos);
  EXPECT_EQ(out.find("</hr>"), std::string::npos);
  EXPECT_NE(out.find("<img src=\"a\">"), std::string::npos);
}

TEST(SerializerTest, EscapesTextAndAttributes) {
  TagTree tree;
  NodeId p = tree.AddTag(tree.root(), Tag::kP, {{"title", "a<b>\"c\""}});
  tree.AddContent(p, "x < y & z");
  tree.FinalizeDerived();
  std::string out = Serialize(tree);
  EXPECT_NE(out.find("title=\"a&lt;b&gt;&quot;c&quot;\""), std::string::npos);
  EXPECT_NE(out.find("x &lt; y &amp; z"), std::string::npos);
}

TEST(SerializerTest, SubtreeSerialization) {
  TagTree tree = ParseHtml("<div><p>a</p></div>");
  NodeId body = tree.node(tree.root()).children[0];
  NodeId div = tree.node(body).children[0];
  EXPECT_EQ(Serialize(tree, div), "<div><p>a</p></div>");
}

TEST(SerializerTest, PrettyPrintingIndents) {
  TagTree tree = ParseHtml("<div><p>a</p></div>");
  SerializeOptions options;
  options.pretty = true;
  std::string out = Serialize(tree, options);
  EXPECT_NE(out.find("\n"), std::string::npos);
  EXPECT_NE(out.find("  "), std::string::npos);
}

TEST(SerializerTest, RoundTripSimpleDocument) {
  const char* html =
      "<html><head><title>T</title></head><body>"
      "<div class=\"main\"><p>one</p><p>two &amp; three</p>"
      "<table><tr><td>cell</td></tr></table></div></body></html>";
  TagTree first = ParseHtml(html);
  TagTree second = ParseHtml(Serialize(first));
  ExpectIsomorphic(first, first.root(), second, second.root());
}

TEST(SerializerTest, RoundTripGeneratedDeepWebPages) {
  // Property: parse -> serialize -> parse is structure-preserving for every
  // page class the simulator emits.
  deepweb::FleetOptions options;
  options.num_sites = 3;
  auto fleet = deepweb::GenerateSiteFleet(options);
  const char* queries[] = {"music", "love", "xzzqv", "history"};
  for (const auto& site : fleet) {
    for (const char* q : queries) {
      auto response = site.Query(q);
      TagTree first = ParseHtml(response.html);
      TagTree second = ParseHtml(Serialize(first));
      ExpectIsomorphic(first, first.root(), second, second.root());
    }
  }
}

TEST(SerializerTest, PrettyRoundTripPreservesStructure) {
  TagTree first =
      ParseHtml("<ul><li>a</li><li>b <b>bold</b></li></ul>");
  SerializeOptions options;
  options.pretty = true;
  TagTree second = ParseHtml(Serialize(first, options));
  // Text nodes gain surrounding whitespace in pretty mode; compare text
  // after whitespace collapse via SubtreeText.
  EXPECT_EQ(first.SubtreeText(first.root()),
            second.SubtreeText(second.root()));
}

}  // namespace
}  // namespace thor::html
