#ifndef THOR_TESTS_ORACLE_PARSER_H_
#define THOR_TESTS_ORACLE_PARSER_H_

#include <string_view>

#include "src/html/arena_parser.h"
#include "src/util/status.h"
#include "tests/oracle/tag_tree.h"

namespace thor::html {

/// \brief The legacy two-phase tree builder, kept as the test oracle:
/// `Tokenizer`, then HotParser's recovery rules over a TagTree that keeps
/// every start tag's attributes. The differential tests hold HotParser to
/// it node for node, and bench_micro's ratio gate divides by its parse.
TagTree ParseHtml(std::string_view input, const ParseOptions& options = {});

/// ParseHtml under the checked-parse rules `ParseArenaChecked` applies
/// (`CheckDocument`, `CheckParsedTree`): the same rejections, messages and
/// diagnostics, on the oracle's tree.
Result<TagTree> ParseHtmlChecked(std::string_view input,
                                 const ParseOptions& options = {},
                                 ParseDiagnostics* diagnostics = nullptr);

}  // namespace thor::html

#endif  // THOR_TESTS_ORACLE_PARSER_H_
