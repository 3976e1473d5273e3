#include "src/core/page.h"

namespace thor::core {

Page Page::Parse(std::string url, std::string html,
                 const html::ParseOptions& options) {
  Page page;
  page.url = std::move(url);
  page.size_bytes = static_cast<int>(html.size());
  page.tree = html::ParseArena(html, options);
  page.html = std::move(html);
  return page;
}

}  // namespace thor::core
