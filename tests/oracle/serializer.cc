#include "tests/oracle/serializer.h"

namespace thor::html {

std::string EscapeText(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    switch (c) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      case '"':
        out.append("&quot;");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

void SerializeNode(const TagTree& tree, NodeId id,
                   const SerializeOptions& options, int depth,
                   std::string* out) {
  const Node& n = tree.node(id);
  auto indent = [&] {
    if (options.pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
    }
  };
  if (n.kind == NodeKind::kContent) {
    indent();
    out->append(EscapeText(n.text));
    return;
  }
  indent();
  out->push_back('<');
  out->append(TagName(n.tag));
  for (const Attribute& attr : n.attributes) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    out->append(EscapeText(attr.value));
    out->push_back('"');
  }
  out->push_back('>');
  if (IsVoidTag(n.tag)) return;
  for (NodeId child : n.children) {
    SerializeNode(tree, child, options, depth + 1, out);
  }
  if (options.pretty && !n.children.empty()) {
    out->push_back('\n');
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  out->append("</");
  out->append(TagName(n.tag));
  out->push_back('>');
}

}  // namespace

std::string Serialize(const TagTree& tree, NodeId root,
                      const SerializeOptions& options) {
  std::string out;
  SerializeNode(tree, root, options, 0, &out);
  if (options.pretty && !out.empty() && out.front() == '\n') {
    out.erase(out.begin());
  }
  return out;
}

std::string Serialize(const TagTree& tree, const SerializeOptions& options) {
  return Serialize(tree, tree.root(), options);
}

}  // namespace thor::html
