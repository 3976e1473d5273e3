#ifndef THOR_CORE_PAGE_H_
#define THOR_CORE_PAGE_H_

#include <string>
#include <string_view>

#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"

namespace thor::core {

/// \brief A fetched dynamic page: THOR's unit of input.
///
/// Wraps the raw HTML, its parsed tag tree, and the request metadata the
/// clustering baselines need (URL, byte size).
struct Page {
  std::string url;
  std::string html;
  html::ArenaTree tree;
  int size_bytes = 0;
  /// Stage-1 knowledge: this page answers a nonsense probe word, so it is
  /// a "no matches" (or error) page by construction. RunThor uses the flag
  /// to veto the cluster these pages dominate.
  bool from_nonsense_probe = false;

  /// Parses `html` (tidy-equivalent error recovery included) into a Page,
  /// with this thread's HotParser (`html::ParseArena`).
  static Page Parse(std::string url, std::string html,
                    const html::ParseOptions& options = {});
};

}  // namespace thor::core

#endif  // THOR_CORE_PAGE_H_
