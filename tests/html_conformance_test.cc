// Conformance-style coverage of the HTML substrate: the messy constructs
// 2003-era deep-web pages actually contained, pinned as behavior tests.
// Every case asserts its expectations on both parsers' trees: HotParser's
// ArenaTree, which learning and serving read, and the legacy TagTree, the
// differential oracle. Attribute cases read the arena tree's attributes
// back from the input, as the labeller does (FindAttributeValues).

#include <string>
#include <string_view>
#include <type_traits>

#include <gtest/gtest.h>

#include "src/html/arena_parser.h"
#include "tests/oracle/parser.h"
#include "tests/oracle/serializer.h"

namespace thor::html {
namespace {

/// Runs `check(tree)` on the legacy parser's tree and on HotParser's.
template <typename Check>
void OnBothTrees(std::string_view html, Check&& check) {
  {
    SCOPED_TRACE("legacy TagTree");
    const TagTree tree = ParseHtml(html);
    check(tree);
  }
  {
    SCOPED_TRACE("ArenaTree");
    const ArenaTree tree = ParseArena(html);
    check(tree);
  }
}

/// The value of attribute `name` on node `id`: TagTree::AttributeValue on
/// the legacy tree, FindAttributeValues on the arena tree.
template <ReadableTree Tree>
std::string Attribute(std::string_view html, const Tree& tree, NodeId id,
                      std::string_view name) {
  if constexpr (std::is_same_v<Tree, TagTree>) {
    return std::string(tree.AttributeValue(id, name));
  } else {
    for (const NodeAttribute& a : FindAttributeValues(html, tree, name)) {
      if (a.node == id) return a.value;
    }
    return "";
  }
}

std::string Text(const char* html) {
  std::string legacy_text;
  std::string arena_text;
  OnBothTrees(html, [&](const auto& tree) {
    std::string& text =
        std::is_same_v<std::decay_t<decltype(tree)>, TagTree> ? legacy_text
                                                              : arena_text;
    text = tree.SubtreeText(tree.root());
  });
  EXPECT_EQ(legacy_text, arena_text) << html;
  return arena_text;
}

template <ReadableTree Tree>
int CountTag(const Tree& tree, TagId tag) {
  int count = 0;
  tree.ForEachInSubtree(tree.root(), [&](NodeId id) {
    if (tree.node(id).is_tag() && tree.node(id).tag == tag) ++count;
  });
  return count;
}

TEST(HtmlConformanceTest, DuplicateAttributesAllKept) {
  const char* html = "<a href='/first' href='/second'>x</a>";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId a = tree.ResolvePath("html/body/a");
    ASSERT_NE(a, kInvalidNode);
    // First occurrence wins for lookup.
    EXPECT_EQ(Attribute(html, tree, a, "href"), "/first");
  });
  TagTree tree = ParseHtml(html);
  EXPECT_EQ(tree.node(tree.ResolvePath("html/body/a")).attributes.size(), 2u);
}

TEST(HtmlConformanceTest, EqualsWithoutValue) {
  const char* html = "<input type= >text";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId input = tree.ResolvePath("html/body/input");
    ASSERT_NE(input, kInvalidNode);
    // "type=" consumes the '>' ... no: unquoted value stops at '>'.
    EXPECT_EQ(Attribute(html, tree, input, "type"), "");
  });
  // Present, with an empty value.
  EXPECT_EQ(FindAttributeValues(html, ParseArena(html), "type").size(), 1u);
}

TEST(HtmlConformanceTest, QuoteInsideUnquotedValue) {
  const char* html = "<a href=/x\"y>t</a>";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId a = tree.ResolvePath("html/body/a");
    EXPECT_EQ(Attribute(html, tree, a, "href"), "/x\"y");
  });
}

TEST(HtmlConformanceTest, EntityInAttributeVsText) {
  const char* html = "<a href=\"/s?a=1&amp;b=2\">x &amp; y</a>";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId a = tree.ResolvePath("html/body/a");
    EXPECT_EQ(Attribute(html, tree, a, "href"), "/s?a=1&b=2");
    EXPECT_EQ(tree.SubtreeText(a), "x & y");
  });
}

TEST(HtmlConformanceTest, NumericEntityInText) {
  EXPECT_EQ(Text("<p>&#72;&#105;</p>"), "Hi");
}

TEST(HtmlConformanceTest, NestedListsKeepStructure) {
  OnBothTrees("<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>",
              [](const auto& tree) {
                NodeId outer = tree.ResolvePath("html/body/ul");
                ASSERT_NE(outer, kInvalidNode);
                // Outer list has two <li> children (a with nested list, b).
                int li_children = 0;
                for (NodeId child : tree.Children(outer)) {
                  if (tree.node(child).tag == Tag::kLi) ++li_children;
                }
                EXPECT_EQ(li_children, 2);
                EXPECT_EQ(CountTag(tree, Tag::kUl), 2);
                EXPECT_EQ(CountTag(tree, Tag::kLi), 4);
              });
}

TEST(HtmlConformanceTest, SelectOptionImpliedEnds) {
  OnBothTrees("<select><option>one<option>two<option>three</select>",
              [](const auto& tree) {
                EXPECT_EQ(CountTag(tree, Tag::kOption), 3);
                NodeId select = tree.ResolvePath("html/body/select");
                EXPECT_EQ(tree.Fanout(select), 3);
              });
}

TEST(HtmlConformanceTest, TextDirectlyInsideTableIsKept) {
  // Content misplaced in <table> still lands in the tree (no foster
  // parenting; Tidy-style behavior keeps it in place).
  EXPECT_EQ(Text("<table>stray<tr><td>cell</td></tr></table>"),
            "stray cell");
}

TEST(HtmlConformanceTest, NestedTables) {
  OnBothTrees(
      "<table><tr><td><table><tr><td>inner</td></tr></table>"
      "</td></tr></table>",
      [](const auto& tree) {
        EXPECT_EQ(CountTag(tree, Tag::kTable), 2);
        NodeId inner = tree.ResolvePath("html/body/table/tr/td/table/tr/td");
        ASSERT_NE(inner, kInvalidNode);
        EXPECT_EQ(tree.SubtreeText(inner), "inner");
      });
}

TEST(HtmlConformanceTest, StrayTdEndTagInsideNestedTable) {
  OnBothTrees(
      "<table><tr><td><table><tr><td>x</td></tr></table></td>"
      "</tr><tr><td>y</td></tr></table>",
      [](const auto& tree) {
        NodeId outer = tree.ResolvePath("html/body/table");
        ASSERT_NE(outer, kInvalidNode);
        EXPECT_EQ(tree.Fanout(outer), 2);  // both outer rows survive
      });
}

TEST(HtmlConformanceTest, LegacyCenterFontMarkup) {
  OnBothTrees(
      "<center><font size=\"+1\" color=\"red\"><b>SALE</b></font>"
      "</center>",
      [](const auto& tree) {
        EXPECT_EQ(CountTag(tree, Tag::kCenter), 1);
        EXPECT_EQ(CountTag(tree, Tag::kFont), 1);
      });
  EXPECT_EQ(Text("<center><font><b>SALE</b></font></center>"), "SALE");
}

TEST(HtmlConformanceTest, SelfClosingDivActsEmpty) {
  OnBothTrees("<div/>after", [](const auto& tree) {
    NodeId body = tree.ResolvePath("html/body");
    // The div takes no children; "after" is a sibling.
    NodeId div = tree.ResolvePath("html/body/div");
    ASSERT_NE(div, kInvalidNode);
    EXPECT_EQ(tree.Fanout(div), 0);
    EXPECT_EQ(tree.SubtreeText(body), "after");
  });
}

TEST(HtmlConformanceTest, CdataBecomesComment) {
  EXPECT_EQ(Text("a<![CDATA[hidden]]>b"), "a b");
}

TEST(HtmlConformanceTest, ConditionalCommentStripped) {
  EXPECT_EQ(Text("x<!--[if IE]><p>ie only</p><![endif]-->y"), "x y");
}

TEST(HtmlConformanceTest, CommentInsideScriptStaysRaw) {
  // The classic 1990s script-hiding idiom.
  OnBothTrees("<script><!--\nvar x = 1;\n// --></script><p>shown</p>",
              [](const auto& tree) {
                EXPECT_EQ(tree.SubtreeText(tree.root()), "shown");
                EXPECT_EQ(CountTag(tree, Tag::kScript), 1);
              });
}

TEST(HtmlConformanceTest, Utf8TextPassesThrough) {
  EXPECT_EQ(Text("<p>caf\xC3\xA9 \xE2\x82\xAC 5</p>"),
            "caf\xC3\xA9 \xE2\x82\xAC 5");
}

TEST(HtmlConformanceTest, NulBytesDoNotBreakParsing) {
  std::string html = "<p>a";
  html.push_back('\0');
  html += "b</p>";
  OnBothTrees(html, [](const auto& tree) {
    EXPECT_EQ(CountTag(tree, Tag::kP), 1);
  });
}

TEST(HtmlConformanceTest, LeadingEndTagsIgnored) {
  EXPECT_EQ(Text("</div></p></table><p>real</p>"), "real");
}

TEST(HtmlConformanceTest, UppercaseEverything) {
  const char* html =
      "<TABLE BORDER=\"1\"><TR><TD ALIGN=CENTER>X</TD></TR></TABLE>";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId td = tree.ResolvePath("html/body/table/tr/td");
    ASSERT_NE(td, kInvalidNode);
    EXPECT_EQ(Attribute(html, tree, td, "align"), "CENTER");
  });
}

TEST(HtmlConformanceTest, WhitespaceOnlyTextNodesDropped) {
  OnBothTrees("<div>\n   <p>x</p>\n   </div>", [](const auto& tree) {
    NodeId div = tree.ResolvePath("html/body/div");
    EXPECT_EQ(tree.Fanout(div), 1);
  });
}

TEST(HtmlConformanceTest, FramesetPages) {
  OnBothTrees(
      "<frameset cols=\"20%,80%\"><frame src=\"nav.html\">"
      "<frame src=\"main.html\"></frameset>",
      [](const auto& tree) {
        EXPECT_EQ(CountTag(tree, Tag::kFrameset), 1);
        EXPECT_EQ(CountTag(tree, Tag::kFrame), 2);
      });
}

TEST(HtmlConformanceTest, VeryLongAttributeValue) {
  std::string html = "<a href=\"/";
  html.append(100000, 'x');
  html += "\">link</a>";
  OnBothTrees(html, [&](const auto& tree) {
    NodeId a = tree.ResolvePath("html/body/a");
    ASSERT_NE(a, kInvalidNode);
    EXPECT_EQ(Attribute(html, tree, a, "href").size(), 100001u);
  });
}

TEST(HtmlConformanceTest, ManySiblingsStayFlat) {
  std::string html = "<ul>";
  for (int i = 0; i < 2000; ++i) html += "<li>item</li>";
  html += "</ul>";
  OnBothTrees(html, [](const auto& tree) {
    NodeId ul = tree.ResolvePath("html/body/ul");
    EXPECT_EQ(tree.Fanout(ul), 2000);
    NodeId last = kInvalidNode;
    for (NodeId child : tree.Children(ul)) last = child;
    EXPECT_EQ(tree.Depth(last), 3);
  });
}

TEST(HtmlConformanceTest, RoundTripOfEveryConformanceCase) {
  const char* cases[] = {
      "<a href='/first' href='/second'>x</a>",
      "<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>",
      "<select><option>one<option>two</select>",
      "<table>stray<tr><td>cell</td></tr></table>",
      "<center><font size='+1'><b>SALE</b></font></center>",
      "<TABLE BORDER='1'><TR><TD>X</TD></TR></TABLE>",
      "<dl><dt>a<dd>1<dt>b<dd>2</dl>",
  };
  for (const char* html : cases) {
    // The serializer writes the legacy tree; both parsers must read its
    // output back into the structure they read from the original.
    const std::string serialized = Serialize(ParseHtml(html));
    OnBothTrees(html, [&](const auto& first) {
      using Tree = std::decay_t<decltype(first)>;
      Tree second;
      if constexpr (std::is_same_v<Tree, TagTree>) {
        second = ParseHtml(serialized);
      } else {
        second = ParseArena(serialized);
      }
      EXPECT_EQ(first.SubtreeSize(first.root()),
                second.SubtreeSize(second.root()))
          << html;
      EXPECT_EQ(first.SubtreeText(first.root()),
                second.SubtreeText(second.root()))
          << html;
    });
  }
}

}  // namespace
}  // namespace thor::html
