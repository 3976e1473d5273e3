#ifndef THOR_TESTS_ORACLE_SERIALIZER_H_
#define THOR_TESTS_ORACLE_SERIALIZER_H_

#include <string>
#include <string_view>

#include "tests/oracle/tag_tree.h"

namespace thor::html {

/// Escapes '&', '<', '>', '"' for safe re-serialization of text/attributes.
std::string EscapeText(std::string_view input);

/// Serialization knobs.
struct SerializeOptions {
  /// Indent with two spaces per depth level and put tags on their own lines.
  bool pretty = false;
};

/// Serializes a (sub)tree back to HTML. Void elements get no end tag;
/// text and attribute values are entity-escaped. Round-tripping a parsed
/// page through Serialize+ParseHtml yields an isomorphic tree (tested).
std::string Serialize(const TagTree& tree, NodeId root,
                      const SerializeOptions& options = {});

/// Serializes the whole tree from its root.
std::string Serialize(const TagTree& tree,
                      const SerializeOptions& options = {});

}  // namespace thor::html

#endif  // THOR_TESTS_ORACLE_SERIALIZER_H_
