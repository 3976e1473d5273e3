#include "src/html/parser.h"

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"

namespace thor::html {
namespace {

// Convenience: the <body> node of a parsed tree.
NodeId Body(const TagTree& tree) {
  for (NodeId child : tree.node(tree.root()).children) {
    if (tree.node(child).tag == Tag::kBody) return child;
  }
  return kInvalidNode;
}

TEST(ParserTest, SynthesizesHtmlHeadBody) {
  TagTree tree = ParseHtml("<html><head><title>t</title></head>"
                           "<body><p>x</p></body></html>");
  EXPECT_EQ(tree.node(tree.root()).tag, Tag::kHtml);
  ASSERT_EQ(tree.node(tree.root()).children.size(), 2u);
  EXPECT_EQ(tree.node(tree.node(tree.root()).children[0]).tag, Tag::kHead);
  EXPECT_EQ(tree.node(tree.node(tree.root()).children[1]).tag, Tag::kBody);
}

TEST(ParserTest, BareTextGetsABody) {
  TagTree tree = ParseHtml("just text");
  NodeId body = Body(tree);
  ASSERT_NE(body, kInvalidNode);
  EXPECT_EQ(tree.SubtreeText(body), "just text");
}

TEST(ParserTest, HeadOnlyTagsGoToHead) {
  TagTree tree = ParseHtml("<title>T</title><meta name=\"a\"><p>body</p>");
  NodeId head = tree.node(tree.root()).children[0];
  EXPECT_EQ(tree.node(head).tag, Tag::kHead);
  EXPECT_EQ(tree.SubtreeText(head), "T");
  NodeId body = Body(tree);
  EXPECT_EQ(tree.SubtreeText(body), "body");
}

TEST(ParserTest, ImpliedEndTagLi) {
  TagTree tree = ParseHtml("<ul><li>one<li>two<li>three</ul>");
  NodeId body = Body(tree);
  NodeId ul = tree.node(body).children[0];
  EXPECT_EQ(tree.node(ul).tag, Tag::kUl);
  ASSERT_EQ(tree.node(ul).children.size(), 3u);
  for (NodeId li : tree.node(ul).children) {
    EXPECT_EQ(tree.node(li).tag, Tag::kLi);
  }
}

TEST(ParserTest, ImpliedEndTagTableCells) {
  TagTree tree =
      ParseHtml("<table><tr><td>a<td>b<tr><td>c</table>");
  NodeId body = Body(tree);
  NodeId table = tree.node(body).children[0];
  ASSERT_EQ(tree.node(table).children.size(), 2u);
  NodeId tr1 = tree.node(table).children[0];
  EXPECT_EQ(tree.node(tr1).children.size(), 2u);
  NodeId tr2 = tree.node(table).children[1];
  EXPECT_EQ(tree.node(tr2).children.size(), 1u);
}

TEST(ParserTest, ImpliedEndTagP) {
  TagTree tree = ParseHtml("<p>one<p>two<div>three</div>");
  NodeId body = Body(tree);
  ASSERT_EQ(tree.node(body).children.size(), 3u);
  EXPECT_EQ(tree.node(tree.node(body).children[0]).tag, Tag::kP);
  EXPECT_EQ(tree.node(tree.node(body).children[1]).tag, Tag::kP);
  EXPECT_EQ(tree.node(tree.node(body).children[2]).tag, Tag::kDiv);
}

TEST(ParserTest, DtDdAlternation) {
  TagTree tree = ParseHtml("<dl><dt>a<dd>1<dt>b<dd>2</dl>");
  NodeId body = Body(tree);
  NodeId dl = tree.node(body).children[0];
  ASSERT_EQ(tree.node(dl).children.size(), 4u);
  EXPECT_EQ(tree.node(tree.node(dl).children[0]).tag, Tag::kDt);
  EXPECT_EQ(tree.node(tree.node(dl).children[1]).tag, Tag::kDd);
}

TEST(ParserTest, VoidElementsDontNest) {
  TagTree tree = ParseHtml("<div>a<br>b<img src='x'>c</div>");
  NodeId body = Body(tree);
  NodeId div = tree.node(body).children[0];
  // children: "a", br, "b", img, "c"
  ASSERT_EQ(tree.node(div).children.size(), 5u);
  EXPECT_EQ(tree.node(tree.node(div).children[1]).tag, Tag::kBr);
  EXPECT_TRUE(tree.node(tree.node(div).children[1]).children.empty());
  EXPECT_EQ(tree.node(tree.node(div).children[3]).tag, Tag::kImg);
}

TEST(ParserTest, OrphanEndTagIgnored) {
  TagTree tree = ParseHtml("<div>a</span></div><p>b</p>");
  NodeId body = Body(tree);
  ASSERT_EQ(tree.node(body).children.size(), 2u);
  EXPECT_EQ(tree.SubtreeText(body), "a b");
}

TEST(ParserTest, MisnestedInlineRecovers) {
  TagTree tree = ParseHtml("<b>bold<i>both</b>italic</i>");
  NodeId body = Body(tree);
  EXPECT_EQ(tree.SubtreeText(body), "bold both italic");
}

TEST(ParserTest, StrayTableCellEndTagDoesNotCrossBoundary) {
  TagTree tree = ParseHtml(
      "<table><tr><td><div>x</td></tr></table>");
  NodeId body = Body(tree);
  NodeId table = tree.node(body).children[0];
  EXPECT_EQ(tree.node(table).tag, Tag::kTable);
  EXPECT_EQ(tree.SubtreeText(table), "x");
}

TEST(ParserTest, ScriptTextDroppedByDefault) {
  TagTree tree = ParseHtml("<script>var hidden = 1;</script><p>shown</p>");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "shown");
  // The script tag node itself is kept (tag signatures count it).
  bool saw_script = false;
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind == NodeKind::kTag &&
        tree.node(id).tag == Tag::kScript) {
      saw_script = true;
    }
  }
  EXPECT_TRUE(saw_script);
}

TEST(ParserTest, ScriptTextKeptWhenRequested) {
  ParseOptions options;
  options.keep_script_text = true;
  TagTree tree = ParseHtml("<script>var kept = 1;</script>", options);
  EXPECT_NE(tree.SubtreeText(tree.root()).find("kept"), std::string::npos);
}

TEST(ParserTest, StyleTextDropped) {
  TagTree tree = ParseHtml("<style>.c { color: red }</style><p>x</p>");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "x");
}

TEST(ParserTest, TitleTextKept) {
  TagTree tree = ParseHtml("<title>My Title</title><p>b</p>");
  EXPECT_NE(tree.SubtreeText(tree.root()).find("My Title"),
            std::string::npos);
}

TEST(ParserTest, CommentsAndDoctypeStripped) {
  TagTree tree = ParseHtml("<!DOCTYPE html><!-- c --><p>x</p><!-- d -->");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "x");
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind == NodeKind::kContent) {
      EXPECT_EQ(tree.node(id).text, "x");
    }
  }
}

TEST(ParserTest, HtmlAttributesMergedToRoot) {
  TagTree tree = ParseHtml("<html lang=\"en\"><body>x</body></html>");
  EXPECT_EQ(tree.AttributeValue(tree.root(), "lang"), "en");
}

TEST(ParserTest, MaxNodesCapStopsGrowth) {
  std::string html;
  for (int i = 0; i < 1000; ++i) html += "<div>x</div>";
  ParseOptions options;
  options.max_nodes = 50;
  TagTree tree = ParseHtml(html, options);
  EXPECT_LE(tree.node_count(), 52);
}

TEST(ParserTest, DerivedFieldsAreFinalized) {
  TagTree tree = ParseHtml("<div><p>abc</p><p>de</p></div>");
  NodeId body = Body(tree);
  NodeId div = tree.node(body).children[0];
  EXPECT_EQ(tree.node(div).content_length, 5);
  EXPECT_EQ(tree.SubtreeSize(div), 5);  // div, p, "abc", p, "de"
}

TEST(ParserTest, DeeplyNestedInputDoesNotOverflow) {
  std::string html;
  for (int i = 0; i < 5000; ++i) html += "<div>";
  html += "x";
  TagTree tree = ParseHtml(html);
  EXPECT_GT(tree.node_count(), 5000);
  EXPECT_EQ(tree.SubtreeText(tree.root()), "x");
}

TEST(ParserTest, HeadClosedWhenBodyContentAppears) {
  TagTree tree = ParseHtml("<title>T</title><div>main</div>");
  NodeId body = Body(tree);
  ASSERT_NE(body, kInvalidNode);
  NodeId div = tree.node(body).children[0];
  EXPECT_EQ(tree.node(div).tag, Tag::kDiv);
  // head holds only the title.
  NodeId head = tree.node(tree.root()).children[0];
  EXPECT_EQ(tree.node(head).tag, Tag::kHead);
  EXPECT_EQ(tree.SubtreeText(head), "T");
}

class ParserFuzzLite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzLite, GarbageNeverBreaksInvariants) {
  uint64_t state = GetParam();
  std::string junk = "<table><tr><td>";
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Bias toward markup punctuation to hit parser paths.
    static constexpr char kAlphabet[] = "<>/=\"' abcdiv<table&#;!-";
    junk.push_back(kAlphabet[(state >> 33) % (sizeof(kAlphabet) - 1)]);
  }
  TagTree tree = ParseHtml(junk);
  // Structural invariants hold for every node.
  for (NodeId id : tree.Preorder()) {
    const Node& n = tree.node(id);
    if (id == tree.root()) {
      EXPECT_EQ(n.parent, kInvalidNode);
    } else {
      ASSERT_GE(n.parent, 0);
      const Node& parent = tree.node(n.parent);
      bool found = false;
      for (NodeId child : parent.children) found |= (child == id);
      EXPECT_TRUE(found);
      EXPECT_EQ(n.depth, parent.depth + 1);
    }
    if (n.kind == NodeKind::kContent) {
      EXPECT_TRUE(n.children.empty());
      EXPECT_FALSE(n.text.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzLite,
                         ::testing::Values(7, 21, 77, 301, 9999));

// --- truncation regressions & checked parsing ---------------------------

TEST(ParserTruncationTest, UnterminatedTagStillBuildsTree) {
  TagTree tree = ParseHtml("<body><div id=\"a\"><p>text</p><div class");
  // The complete elements survive; the cut tag is best-effort.
  bool saw_p = false;
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind == NodeKind::kTag &&
        tree.node(id).tag == Tag::kP) {
      saw_p = true;
    }
  }
  EXPECT_TRUE(saw_p);
}

TEST(ParserTruncationTest, EveryPrefixOfRealPageParses) {
  const std::string html =
      "<html><head><title>Results</title></head><body><h1>Found 3</h1>"
      "<table><tr><td><a href=\"/item?id=1\">First &amp; best</a></td>"
      "<td>$9.99</td></tr><tr><td>Second</td><td>$1</td></tr></table>"
      "<script>track('q');</script></body></html>";
  for (size_t cut = 0; cut <= html.size(); ++cut) {
    TagTree tree = ParseHtml(std::string_view(html).substr(0, cut));
    // Structural invariants hold at every cut.
    for (NodeId id : tree.Preorder()) {
      const Node& n = tree.node(id);
      if (id != tree.root()) {
        ASSERT_GE(n.parent, 0) << "cut at " << cut;
        EXPECT_EQ(n.depth, tree.node(n.parent).depth + 1);
      }
    }
  }
}

// The checked parse learning runs: HotParser under the shared rules.
// label_diff_test holds ParseHtmlChecked to the same decisions.
TEST(ParserCheckedTest, EmptyInputIsParseError) {
  auto result = ParseArenaChecked("");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  auto ws = ParseArenaChecked("   \n\t  ");
  EXPECT_FALSE(ws.ok());
}

TEST(ParserCheckedTest, MarkupYieldingNoElementsIsParseError) {
  auto result = ParseArenaChecked("<!-- only a comment -->");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserCheckedTest, TruncatedButUsablePageSucceedsWithDiagnostics) {
  ParseDiagnostics diagnostics;
  auto result = ParseArenaChecked(
      "<body><table><tr><td>row</td></tr><tr><td class=\"cu", {},
      &diagnostics);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(diagnostics.truncated_markup);
  EXPECT_GE(diagnostics.tag_nodes, 4);
}

TEST(ParserCheckedTest, CleanPageHasNoTruncationFlag) {
  ParseDiagnostics diagnostics;
  auto result = ParseArenaChecked("<body><p>hello</p></body>", {},
                                  &diagnostics);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(diagnostics.truncated_markup);
}

TEST(ParserCheckedTest, TrailingLiteralLessThanIsNotTruncation) {
  ParseDiagnostics diagnostics;
  auto result = ParseArenaChecked("<body><p>a &lt; b, i.e. a <</p>", {},
                                  &diagnostics);
  ASSERT_TRUE(result.ok());
}

}  // namespace
}  // namespace thor::html
