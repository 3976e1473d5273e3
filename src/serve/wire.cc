#include "src/serve/wire.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>

#include "src/util/json.h"
#include "src/util/json_reader.h"

namespace thor::serve {

namespace {

/// Loads a "file" request's page. Only a regular file of at most
/// `max_bytes` is read: a device such as /dev/zero never ends, and a FIFO
/// would stall the reading thread (every connection, over TCP).
std::string ReadRequestFile(const std::string& path, size_t max_bytes,
                            std::string* html) {
  // O_NONBLOCK: opening a FIFO must not wait for a writer.
  int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return "bad request: cannot read " + path;
  std::string error;
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    error = "bad request: cannot read " + path;
  } else if (!S_ISREG(info.st_mode)) {
    error = "bad request: not a regular file: " + path;
  } else if (static_cast<uint64_t>(info.st_size) > max_bytes) {
    error = "bad request: file too large: " + path;
  } else {
    // The size may change after fstat: read to EOF, stopping one byte past
    // the bound.
    std::string content;
    content.reserve(static_cast<size_t>(info.st_size));
    char chunk[65536];
    while (content.size() <= max_bytes) {
      size_t want = std::min(sizeof(chunk) - 1, max_bytes - content.size()) + 1;
      ssize_t got = ::read(fd, chunk, want);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) {
        error = "bad request: cannot read " + path;
        break;
      }
      if (got == 0) break;
      content.append(chunk, static_cast<size_t>(got));
    }
    if (error.empty() && content.size() > max_bytes) {
      error = "bad request: file too large: " + path;
    }
    if (error.empty()) *html = std::move(content);
  }
  ::close(fd);
  return error;
}

}  // namespace

std::string ParseRequestLine(const std::string& line, size_t max_file_bytes,
                             std::string* site, std::string* html) {
  auto document = JsonValue::Parse(line);
  if (!document.ok()) return "bad request: " + document.status().message();
  JsonValue* site_value = document->Find("site");
  if (site_value == nullptr || !site_value->IsString()) {
    return "bad request: missing \"site\"";
  }
  *site = site_value->TakeString();
  JsonValue* html_value = document->Find("html");
  if (html_value != nullptr && html_value->IsString()) {
    *html = html_value->TakeString();
    return "";
  }
  const JsonValue* file_value = document->Find("file");
  if (file_value != nullptr && file_value->IsString()) {
    return ReadRequestFile(file_value->AsString(), max_file_bytes, html);
  }
  return "bad request: need \"html\" or \"file\"";
}

Result<ExtractionService::Response> ResponseFromJson(const std::string& line,
                                                     std::string* site) {
  auto document = JsonValue::Parse(line);
  if (!document.ok()) return document.status();
  const JsonValue* site_value = document->Find("site");
  const JsonValue* source = document->Find("source");
  const JsonValue* pagelet = document->Find("pagelet");
  const JsonValue* objects = document->Find("objects");
  const JsonValue* confidence = document->Find("confidence");
  const JsonValue* generation = document->Find("generation");
  if (site_value == nullptr || !site_value->IsString() || source == nullptr ||
      !source->IsString() || pagelet == nullptr || !pagelet->IsString() ||
      objects == nullptr || !objects->IsNumber() || confidence == nullptr ||
      !confidence->IsNumber() || generation == nullptr ||
      !generation->IsNumber()) {
    return Status::ParseError("not a thord response line");
  }
  ExtractionService::Response response;
  using Source = ExtractionService::Source;
  bool known = false;
  for (Source candidate : {Source::kTemplate, Source::kRelearn, Source::kMiss,
                           Source::kShed, Source::kDeadline}) {
    if (source->AsString() == ExtractionService::SourceName(candidate)) {
      response.source = candidate;
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::ParseError("unknown response source \"" +
                              source->AsString() + "\"");
  }
  response.pagelet_path = pagelet->AsString();
  // Only the count crosses the wire; placeholders carry it through the
  // re-render (ResponseToJson emits objects.size()).
  response.objects.resize(static_cast<size_t>(objects->AsInt()));
  response.confidence = confidence->AsDouble();
  response.generation = generation->AsInt();
  const JsonValue* error = document->Find("error");
  if (error != nullptr && error->IsString()) {
    response.error = error->AsString();
  }
  if (site != nullptr) *site = site_value->AsString();
  return response;
}

std::string ResponseToJson(const std::string& site,
                           const ExtractionService::Response& response) {
  JsonWriter json;
  json.BeginObject();
  json.Key("site").String(site);
  json.Key("source").String(ExtractionService::SourceName(response.source));
  json.Key("pagelet").String(response.pagelet_path);
  json.Key("objects").Int(static_cast<long long>(response.objects.size()));
  json.Key("confidence").Double(response.confidence);
  json.Key("generation").Int(response.generation);
  if (!response.error.empty()) json.Key("error").String(response.error);
  json.EndObject();
  return json.str();
}

}  // namespace thor::serve
