#ifndef THOR_SERVE_WIRE_H_
#define THOR_SERVE_WIRE_H_

#include <cstddef>
#include <string>

#include "src/serve/extraction_service.h"

namespace thor::serve {

/// \brief The thord wire schema, factored out of the daemon so the stdio
/// front-end and the TCP/HTTP front-end render byte-identical streams.
///
/// Request line:  {"site": "...", "html": "..."} or {"site": ..., "file": ...}
/// Response line: {"site":...,"source":...,"pagelet":...,"objects":N,
///                 "confidence":...,"generation":N[,"error":...]}

/// Parses one request line into (site, html); the html moves out of the
/// parsed document. A "file" request loads the page from disk: only a
/// regular file of at most `max_file_bytes`, the bound that also caps an
/// inline request. Returns a client-facing error message ("bad request:
/// ...") on failure, empty on success.
std::string ParseRequestLine(const std::string& line, size_t max_file_bytes,
                             std::string* site, std::string* html);

/// Renders one response as a single JSON line (no trailing newline).
std::string ResponseToJson(const std::string& site,
                           const ExtractionService::Response& response);

/// Inverse of ResponseToJson, for the fleet router forwarding a worker's
/// response line back through its own front-end. The roundtrip
/// ResponseToJson(site, *ResponseFromJson(line)) reproduces `line`
/// byte-for-byte for any line ResponseToJson produced: every field is a
/// fixed-format scalar ("objects" comes back as that many placeholder
/// entries so the count re-renders identically; the texts themselves never
/// cross the wire). Parse failure means the body was not a thord response.
Result<ExtractionService::Response> ResponseFromJson(const std::string& line,
                                                     std::string* site);

}  // namespace thor::serve

#endif  // THOR_SERVE_WIRE_H_
