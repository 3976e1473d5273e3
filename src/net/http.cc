#include "src/net/http.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "src/util/strings.h"

namespace thor::net {

namespace {

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

/// Strips one trailing CR (lines are split on LF; CRLF and bare LF both
/// arrive here without their LF).
std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses a decimal size_t; rejects empty, non-digits, and overflow.
bool ParseSize(std::string_view text, size_t* out) {
  if (text.empty() || text.size() > 15) return false;
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Header-field name validity (RFC 7230 token, abbreviated): printable
/// ASCII excluding separators that would make parsing ambiguous.
bool ValidHeaderName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u <= ' ' || u >= 127 || c == ':') return false;
  }
  return true;
}

bool ValidHeaderValue(std::string_view value) {
  for (char c : value) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < ' ' && c != '\t') return false;  // bare CTLs smuggle framing
  }
  return true;
}

/// Computes message keep-alive from version + Connection header.
bool ComputeKeepAlive(const std::string& version, const HttpHeaders& headers) {
  const std::string* connection = headers.Find("connection");
  if (connection != nullptr) {
    if (IEquals(*connection, "close")) return false;
    if (IEquals(*connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";
}

}  // namespace

// --- LineFramer ----------------------------------------------------------

std::vector<LineFramer::Line> LineFramer::Feed(std::string_view data) {
  // Whole runs between newlines move at once (memchr finds the newline,
  // one append or copy moves the run); the outcome matches feeding the
  // bytes one at a time.
  std::vector<Line> lines;
  const char* cursor = data.data();
  const char* const end = data.data() + data.size();
  while (cursor < end) {
    const char* newline = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<size_t>(end - cursor)));
    const char* run_end = newline != nullptr ? newline : end;
    const size_t run = static_cast<size_t>(run_end - cursor);
    if (discarding_) {
      if (newline == nullptr) break;  // still inside the oversized line
      discarding_ = false;
      reported_ = false;
    } else if (run > max_line_bytes_ - buffer_.size()) {
      // Bound hit mid-line: report once, then swallow to the newline so
      // the stream can resynchronize.
      buffer_.clear();
      discarding_ = true;
      if (!reported_) {
        reported_ = true;
        Line line;
        line.oversized = true;
        lines.push_back(std::move(line));
      }
      cursor = run_end;  // a newline here ends the discard on the next pass
      continue;
    } else if (newline == nullptr) {
      buffer_.append(cursor, run);
    } else {
      Line line;
      if (buffer_.empty()) {
        line.text.assign(cursor, run);
      } else {
        buffer_.append(cursor, run);
        line.text = std::move(buffer_);
        buffer_.clear();
      }
      if (!line.text.empty() && line.text.back() == '\r') {
        line.text.pop_back();
      }
      lines.push_back(std::move(line));
    }
    cursor = newline != nullptr ? newline + 1 : end;
  }
  return lines;
}

// --- HttpHeaders ---------------------------------------------------------

const std::string* HttpHeaders::Find(std::string_view name) const {
  for (const auto& [key, value] : entries) {
    if (IEquals(key, name)) return &value;
  }
  return nullptr;
}

void HttpHeaders::Add(std::string name, std::string value) {
  entries.emplace_back(std::move(name), std::move(value));
}

// --- HttpRequestParser ---------------------------------------------------

ParseState HttpRequestParser::Fail(std::string message) {
  phase_ = Phase::kError;
  error_ = Status::ParseError(std::move(message));
  return ParseState::kError;
}

bool HttpRequestParser::ParseBufferedLines() {
  size_t start = 0;
  while (phase_ == Phase::kStartLine || phase_ == Phase::kHeaders) {
    size_t eol = buffer_.find('\n', start);
    if (eol == std::string::npos) break;
    std::string_view line =
        StripCr(std::string_view(buffer_).substr(start, eol - start));
    start = eol + 1;
    if (phase_ == Phase::kStartLine) {
      if (line.empty()) continue;  // tolerate leading blank lines
      if (line.size() > limits_.max_start_line) {
        Fail("request line exceeds limit");
        break;
      }
      size_t sp1 = line.find(' ');
      size_t sp2 = sp1 == std::string_view::npos
                       ? std::string_view::npos
                       : line.find(' ', sp1 + 1);
      if (sp2 == std::string_view::npos ||
          line.find(' ', sp2 + 1) != std::string_view::npos) {
        Fail("malformed request line");
        break;
      }
      request_.method = std::string(line.substr(0, sp1));
      request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      request_.version = std::string(line.substr(sp2 + 1));
      if (request_.method.empty() || request_.target.empty() ||
          (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0")) {
        Fail("unsupported HTTP version or empty method/target");
        break;
      }
      phase_ = Phase::kHeaders;
      continue;
    }
    // Headers.
    if (line.empty()) {
      const std::string* te = request_.headers.Find("transfer-encoding");
      if (te != nullptr) {
        Fail("transfer-encoding unsupported");
        break;
      }
      const std::string* cl = request_.headers.Find("content-length");
      content_length_ = 0;
      if (cl != nullptr && !ParseSize(Trim(*cl), &content_length_)) {
        Fail("bad content-length");
        break;
      }
      if (content_length_ > limits_.max_body_bytes) {
        Fail("body exceeds limit");
        break;
      }
      request_.keep_alive = ComputeKeepAlive(request_.version,
                                             request_.headers);
      phase_ = Phase::kBody;
      break;
    }
    header_bytes_ += line.size() + 2;
    if (header_bytes_ > limits_.max_header_bytes) {
      Fail("header section exceeds limit");
      break;
    }
    if (request_.headers.entries.size() >= limits_.max_headers) {
      Fail("too many headers");
      break;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      Fail("malformed header line");
      break;
    }
    std::string_view name = line.substr(0, colon);
    std::string_view value = Trim(line.substr(colon + 1));
    if (!ValidHeaderName(name) || !ValidHeaderValue(value)) {
      Fail("invalid header field");
      break;
    }
    request_.headers.Add(std::string(name), std::string(value));
  }
  buffer_.erase(0, start);
  return phase_ != Phase::kError;
}

ParseState HttpRequestParser::Feed(std::string_view data, size_t* consumed) {
  *consumed = 0;
  if (phase_ == Phase::kError) return ParseState::kError;
  if (phase_ == Phase::kDone) return ParseState::kDone;
  // Head bytes accumulate in the buffer until the blank line.
  while (phase_ == Phase::kStartLine || phase_ == Phase::kHeaders) {
    if (!data.empty()) {
      size_t budget = limits_.max_start_line + limits_.max_header_bytes;
      size_t take = std::min(data.size(), budget + 1 - std::min(
          buffer_.size(), budget + 1));
      if (take == 0) return Fail("header section exceeds limit");
      buffer_.append(data.substr(0, take));
      *consumed += take;
      data.remove_prefix(take);
    }
    if (!ParseBufferedLines()) return ParseState::kError;
    if (phase_ == Phase::kStartLine || phase_ == Phase::kHeaders) {
      // No complete line left in the buffer.
      if (buffer_.size() >
          (phase_ == Phase::kStartLine ? limits_.max_start_line
                                       : limits_.max_header_bytes)) {
        return Fail(phase_ == Phase::kStartLine ? "request line exceeds limit"
                                                : "header section exceeds limit");
      }
      if (data.empty()) return ParseState::kNeedMore;
      continue;
    }
  }
  // Body: the head parser left any surplus head-buffer bytes as body
  // prefix; move them over, then consume from `data`.
  if (phase_ == Phase::kBody) {
    if (!buffer_.empty()) {
      size_t take = std::min(buffer_.size(),
                             content_length_ - request_.body.size());
      request_.body.append(buffer_, 0, take);
      buffer_.erase(0, take);
    }
    size_t need = content_length_ - request_.body.size();
    size_t take = std::min(need, data.size());
    request_.body.append(data.substr(0, take));
    *consumed += take;
    if (request_.body.size() == content_length_) {
      phase_ = Phase::kDone;
      return ParseState::kDone;
    }
    return ParseState::kNeedMore;
  }
  return phase_ == Phase::kDone ? ParseState::kDone : ParseState::kNeedMore;
}

void HttpRequestParser::Reset() {
  phase_ = Phase::kStartLine;
  // Pipelining: bytes past the finished message stay buffered and seed the
  // next message's head.
  header_bytes_ = 0;
  content_length_ = 0;
  request_ = HttpRequest{};
  error_ = Status::OK();
}

// --- HttpResponseParser --------------------------------------------------

ParseState HttpResponseParser::Fail(std::string message) {
  phase_ = Phase::kError;
  error_ = Status::ParseError(std::move(message));
  return ParseState::kError;
}

bool HttpResponseParser::ParseBufferedLines() {
  size_t start = 0;
  while (phase_ == Phase::kStatusLine || phase_ == Phase::kHeaders) {
    size_t eol = buffer_.find('\n', start);
    if (eol == std::string::npos) break;
    std::string_view line =
        StripCr(std::string_view(buffer_).substr(start, eol - start));
    start = eol + 1;
    if (phase_ == Phase::kStatusLine) {
      if (line.empty()) continue;
      if (line.size() > limits_.max_start_line) {
        Fail("status line exceeds limit");
        break;
      }
      size_t sp1 = line.find(' ');
      if (sp1 == std::string_view::npos) {
        Fail("malformed status line");
        break;
      }
      response_.version = std::string(line.substr(0, sp1));
      if (response_.version != "HTTP/1.1" &&
          response_.version != "HTTP/1.0") {
        Fail("unsupported HTTP version");
        break;
      }
      std::string_view rest = line.substr(sp1 + 1);
      size_t sp2 = rest.find(' ');
      std::string_view code =
          sp2 == std::string_view::npos ? rest : rest.substr(0, sp2);
      size_t value = 0;
      if (code.size() != 3 || !ParseSize(code, &value)) {
        Fail("malformed status code");
        break;
      }
      response_.status_code = static_cast<int>(value);
      response_.reason = sp2 == std::string_view::npos
                             ? std::string()
                             : std::string(rest.substr(sp2 + 1));
      phase_ = Phase::kHeaders;
      continue;
    }
    if (line.empty()) {
      const std::string* te = response_.headers.Find("transfer-encoding");
      if (te != nullptr) {
        Fail("transfer-encoding unsupported");
        break;
      }
      const std::string* cl = response_.headers.Find("content-length");
      has_content_length_ = cl != nullptr;
      content_length_ = 0;
      if (has_content_length_ && !ParseSize(Trim(*cl), &content_length_)) {
        Fail("bad content-length");
        break;
      }
      if (content_length_ > limits_.max_body_bytes) {
        Fail("body exceeds limit");
        break;
      }
      response_.keep_alive = ComputeKeepAlive(response_.version,
                                              response_.headers);
      if (!has_content_length_) response_.keep_alive = false;
      phase_ = Phase::kBody;
      if (has_content_length_ && content_length_ == 0) phase_ = Phase::kDone;
      break;
    }
    header_bytes_ += line.size() + 2;
    if (header_bytes_ > limits_.max_header_bytes) {
      Fail("header section exceeds limit");
      break;
    }
    if (response_.headers.entries.size() >= limits_.max_headers) {
      Fail("too many headers");
      break;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      Fail("malformed header line");
      break;
    }
    std::string_view name = line.substr(0, colon);
    std::string_view value = Trim(line.substr(colon + 1));
    if (!ValidHeaderName(name) || !ValidHeaderValue(value)) {
      Fail("invalid header field");
      break;
    }
    response_.headers.Add(std::string(name), std::string(value));
  }
  buffer_.erase(0, start);
  return phase_ != Phase::kError;
}

ParseState HttpResponseParser::Feed(std::string_view data, size_t* consumed) {
  *consumed = 0;
  if (phase_ == Phase::kError) return ParseState::kError;
  if (phase_ == Phase::kDone) return ParseState::kDone;
  while (phase_ == Phase::kStatusLine || phase_ == Phase::kHeaders) {
    if (!data.empty()) {
      size_t budget = limits_.max_start_line + limits_.max_header_bytes;
      size_t take = std::min(data.size(), budget + 1 - std::min(
          buffer_.size(), budget + 1));
      if (take == 0) return Fail("header section exceeds limit");
      buffer_.append(data.substr(0, take));
      *consumed += take;
      data.remove_prefix(take);
    }
    if (!ParseBufferedLines()) return ParseState::kError;
    if (phase_ == Phase::kStatusLine || phase_ == Phase::kHeaders) {
      if (buffer_.size() >
          (phase_ == Phase::kStatusLine ? limits_.max_start_line
                                        : limits_.max_header_bytes)) {
        return Fail(phase_ == Phase::kStatusLine
                        ? "status line exceeds limit"
                        : "header section exceeds limit");
      }
      if (data.empty()) return ParseState::kNeedMore;
      continue;
    }
  }
  if (phase_ == Phase::kBody) {
    if (!buffer_.empty()) {
      size_t take = buffer_.size();
      if (has_content_length_) {
        take = std::min(take, content_length_ - response_.body.size());
      }
      response_.body.append(buffer_, 0, take);
      buffer_.erase(0, take);
    }
    size_t take = data.size();
    if (has_content_length_) {
      take = std::min(take, content_length_ - response_.body.size());
    } else if (response_.body.size() + take > limits_.max_body_bytes) {
      return Fail("body exceeds limit");
    }
    response_.body.append(data.substr(0, take));
    *consumed += take;
    if (has_content_length_ && response_.body.size() == content_length_) {
      phase_ = Phase::kDone;
      return ParseState::kDone;
    }
    return ParseState::kNeedMore;
  }
  return phase_ == Phase::kDone ? ParseState::kDone : ParseState::kNeedMore;
}

ParseState HttpResponseParser::FeedEof() {
  switch (phase_) {
    case Phase::kDone:
      return ParseState::kDone;
    case Phase::kError:
      return ParseState::kError;
    case Phase::kBody:
      if (has_content_length_ && response_.body.size() < content_length_) {
        // Short body at close: keep what arrived, flag the damage — the
        // transport layer turns this into truncated_body, which downstream
        // page validation already knows how to judge.
        response_.truncated = true;
      }
      phase_ = Phase::kDone;
      return ParseState::kDone;
    case Phase::kStatusLine:
      if (buffer_.empty() && response_.version.empty()) {
        return Fail("connection closed before response");
      }
      [[fallthrough]];
    case Phase::kHeaders:
      return Fail("connection closed mid-header");
  }
  return ParseState::kError;
}

void HttpResponseParser::Reset() {
  phase_ = Phase::kStatusLine;
  header_bytes_ = 0;
  has_content_length_ = false;
  content_length_ = 0;
  response_ = HttpResponse{};
  error_ = Status::OK();
}

// --- serialization -------------------------------------------------------

std::string_view ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Status";
  }
}

std::string SerializeResponse(
    int status_code, std::string_view reason, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " ";
  out.append(reason);
  out.append("\r\n");
  for (const auto& [name, value] : headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  out.append("Content-Length: ").append(std::to_string(body.size()));
  out.append("\r\nConnection: ").append(keep_alive ? "keep-alive" : "close");
  out.append("\r\n\r\n");
  out.append(body);
  return out;
}

std::string SerializeRequest(
    std::string_view method, std::string_view target, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out;
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  bool has_host = false;
  for (const auto& entry : headers) {
    if (entry.first == "Host" || entry.first == "host") has_host = true;
  }
  if (!has_host) out.append("Host: thor\r\n");
  for (const auto& [name, value] : headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  if (!body.empty() || method == "POST") {
    out.append("Content-Length: ").append(std::to_string(body.size()));
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(body);
  return out;
}

// --- URL codec -----------------------------------------------------------

namespace {

bool Unreserved(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '~' ||
         c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string UrlEncode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (Unreserved(c)) {
      out.push_back(c);
    } else {
      unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

Result<std::string> UrlDecode(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    char c = encoded[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= encoded.size()) {
        return Status::ParseError("truncated percent escape");
      }
      int hi = HexValue(encoded[i + 1]);
      int lo = HexValue(encoded[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("malformed percent escape");
      }
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Status ParseTarget(std::string_view target, std::string* path,
                   std::vector<std::pair<std::string, std::string>>* query) {
  query->clear();
  size_t qmark = target.find('?');
  auto decoded_path =
      UrlDecode(qmark == std::string_view::npos ? target
                                                : target.substr(0, qmark));
  if (!decoded_path.ok()) return decoded_path.status();
  *path = std::move(*decoded_path);
  if (qmark == std::string_view::npos) return Status::OK();
  std::string_view rest = target.substr(qmark + 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    auto key = UrlDecode(eq == std::string_view::npos ? pair
                                                      : pair.substr(0, eq));
    if (!key.ok()) return key.status();
    std::string value;
    if (eq != std::string_view::npos) {
      auto decoded = UrlDecode(pair.substr(eq + 1));
      if (!decoded.ok()) return decoded.status();
      value = std::move(*decoded);
    }
    query->emplace_back(std::move(*key), std::move(value));
  }
  return Status::OK();
}

}  // namespace thor::net
