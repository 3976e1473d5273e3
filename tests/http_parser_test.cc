// Wire-parser hardening, in the template_codec_test mold: every truncated
// prefix, every split-read boundary, oversized inputs, and single-byte
// corruptions of valid traffic must land in a typed error or a clean
// incomplete state — never a crash, a hang, or silent misframing. These
// parsers sit directly on attacker-reachable bytes, so the walk is
// exhaustive rather than sampled.

#include "src/net/http.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace thor::net {
namespace {

const std::string kPost =
    "POST /extract HTTP/1.1\r\n"
    "Host: thor\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 24\r\n"
    "\r\n"
    "{\"site\":\"s0\",\"html\":\"x\"}";

const std::string kGet =
    "GET /healthz HTTP/1.1\r\nHost: thor\r\nConnection: close\r\n\r\n";

/// Feeds `wire` in one call and requires exactly one complete message.
HttpRequest ParseWhole(const std::string& wire) {
  HttpRequestParser parser;
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kDone) << wire;
  return parser.request();
}

TEST(HttpRequestParserTest, ParsesPostWithBody) {
  HttpRequest request = ParseWhole(kPost);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/extract");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "{\"site\":\"s0\",\"html\":\"x\"}");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.headers.Find("content-type"), nullptr);
  EXPECT_EQ(*request.headers.Find("CONTENT-TYPE"), "application/json");
}

TEST(HttpRequestParserTest, ConnectionCloseEndsKeepAlive) {
  EXPECT_FALSE(ParseWhole(kGet).keep_alive);
}

TEST(HttpRequestParserTest, EveryTruncatedPrefixIsIncompleteNotDone) {
  for (size_t cut = 0; cut < kPost.size(); ++cut) {
    HttpRequestParser parser;
    size_t consumed = 0;
    ParseState state = parser.Feed(kPost.substr(0, cut), &consumed);
    ASSERT_EQ(state, ParseState::kNeedMore) << "prefix length " << cut;
    // The remainder must complete the identical message.
    state = parser.Feed(kPost.substr(cut), &consumed);
    ASSERT_EQ(state, ParseState::kDone) << "prefix length " << cut;
    EXPECT_EQ(parser.request().body, "{\"site\":\"s0\",\"html\":\"x\"}");
  }
}

TEST(HttpRequestParserTest, ByteAtATimeMatchesWholeParse) {
  HttpRequestParser parser;
  ParseState state = ParseState::kNeedMore;
  for (char c : kPost) {
    size_t consumed = 0;
    state = parser.Feed(std::string_view(&c, 1), &consumed);
    ASSERT_NE(state, ParseState::kError);
  }
  ASSERT_EQ(state, ParseState::kDone);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().body, "{\"site\":\"s0\",\"html\":\"x\"}");
}

TEST(HttpRequestParserTest, SeededRandomSplitsNeverChangeTheResult) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    HttpRequestParser parser;
    size_t offset = 0;
    ParseState state = ParseState::kNeedMore;
    while (offset < kPost.size()) {
      size_t chunk = 1 + rng.UniformInt(11);
      chunk = std::min(chunk, kPost.size() - offset);
      size_t consumed = 0;
      state = parser.Feed(kPost.substr(offset, chunk), &consumed);
      ASSERT_NE(state, ParseState::kError);
      offset += chunk;
    }
    ASSERT_EQ(state, ParseState::kDone);
    EXPECT_EQ(parser.request().target, "/extract");
  }
}

TEST(HttpRequestParserTest, SingleByteCorruptionNeverCrashesOrHangs) {
  // Flip each position to a handful of hostile bytes. Any outcome in
  // {kDone, kError, kNeedMore-wanting-more} is acceptable; what this walk
  // pins down is "no crash" and "kError carries a typed status".
  const char kEvil[] = {'\0', '\r', '\n', ' ', ':', '\x7f', '\xff', 'A'};
  for (size_t pos = 0; pos < kPost.size(); ++pos) {
    for (char evil : kEvil) {
      std::string corrupted = kPost;
      if (corrupted[pos] == evil) continue;
      corrupted[pos] = evil;
      HttpRequestParser parser;
      size_t consumed = 0;
      ParseState state = parser.Feed(corrupted, &consumed);
      if (state == ParseState::kError) {
        EXPECT_FALSE(parser.error().ok());
        EXPECT_FALSE(parser.error().message().empty());
      }
    }
  }
}

TEST(HttpRequestParserTest, OversizedStartLineIsTypedError) {
  WireLimits limits;
  limits.max_start_line = 64;
  HttpRequestParser parser(limits);
  std::string wire = "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kError);
  EXPECT_FALSE(parser.error().ok());
}

TEST(HttpRequestParserTest, OversizedHeaderSectionIsTypedError) {
  WireLimits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: " + std::string(500, 'b') +
                     "\r\n\r\n";
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kError);
}

TEST(HttpRequestParserTest, TooManyHeadersIsTypedError) {
  WireLimits limits;
  limits.max_headers = 4;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kError);
}

TEST(HttpRequestParserTest, OverLimitContentLengthIsTypedError) {
  WireLimits limits;
  limits.max_body_bytes = 100;
  HttpRequestParser parser(limits);
  std::string wire =
      "POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kError);
}

TEST(HttpRequestParserTest, ChunkedTransferEncodingIsRejected) {
  HttpRequestParser parser;
  std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  size_t consumed = 0;
  EXPECT_EQ(parser.Feed(wire, &consumed), ParseState::kError);
}

TEST(HttpRequestParserTest, PipelinedMessagesDrainViaResetLoop) {
  HttpRequestParser parser;
  std::string wire = kPost + kGet + kPost;
  std::vector<std::string> methods;
  std::string inbox = wire;
  for (;;) {
    size_t consumed = 0;
    ParseState state = parser.Feed(inbox, &consumed);
    inbox.erase(0, consumed);
    if (state == ParseState::kNeedMore) break;
    ASSERT_EQ(state, ParseState::kDone);
    methods.push_back(parser.request().method);
    parser.Reset();
  }
  EXPECT_EQ(methods, (std::vector<std::string>{"POST", "GET", "POST"}));
}

// --- response parser -----------------------------------------------------

TEST(HttpResponseParserTest, ParsesContentLengthBody) {
  HttpResponseParser parser;
  std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
  size_t consumed = 0;
  ASSERT_EQ(parser.Feed(wire, &consumed), ParseState::kDone);
  EXPECT_EQ(parser.response().status_code, 200);
  EXPECT_EQ(parser.response().body, "hello");
  EXPECT_FALSE(parser.response().truncated);
}

TEST(HttpResponseParserTest, CloseDelimitedBodyCompletesOnEof) {
  HttpResponseParser parser;
  std::string wire = "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npartial";
  size_t consumed = 0;
  ASSERT_EQ(parser.Feed(wire, &consumed), ParseState::kNeedMore);
  ASSERT_EQ(parser.FeedEof(), ParseState::kDone);
  EXPECT_EQ(parser.response().body, "partial");
}

TEST(HttpResponseParserTest, ShortContentLengthBodyIsTruncatedNotError) {
  HttpResponseParser parser;
  std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort";
  size_t consumed = 0;
  ASSERT_EQ(parser.Feed(wire, &consumed), ParseState::kNeedMore);
  ASSERT_EQ(parser.FeedEof(), ParseState::kDone);
  EXPECT_TRUE(parser.response().truncated);
  EXPECT_EQ(parser.response().body, "short");
}

TEST(HttpResponseParserTest, EofMidHeadersIsTypedError) {
  HttpResponseParser parser;
  size_t consumed = 0;
  ASSERT_EQ(parser.Feed("HTTP/1.1 200 OK\r\nConte", &consumed),
            ParseState::kNeedMore);
  EXPECT_EQ(parser.FeedEof(), ParseState::kError);
  EXPECT_FALSE(parser.error().ok());
}

TEST(HttpResponseParserTest, EveryTruncatedPrefixIsIncomplete) {
  std::string wire =
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nbad";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpResponseParser parser;
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(wire.substr(0, cut), &consumed),
              ParseState::kNeedMore)
        << cut;
    ASSERT_EQ(parser.Feed(wire.substr(cut), &consumed), ParseState::kDone)
        << cut;
    EXPECT_EQ(parser.response().status_code, 503);
  }
}

// --- NDJSON line framer ---------------------------------------------------

TEST(LineFramerTest, SplitFeedsReassembleLines) {
  LineFramer framer;
  std::string stream = "alpha\nbeta\r\ngamma\n";
  std::vector<std::string> lines;
  for (char c : stream) {
    for (LineFramer::Line& line : framer.Feed(std::string_view(&c, 1))) {
      EXPECT_FALSE(line.oversized);
      lines.push_back(line.text);
    }
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(framer.pending_bytes(), 0u);
}

TEST(LineFramerTest, OversizedLineReportsOnceAndResyncs) {
  LineFramer framer(8);
  auto first = framer.Feed(std::string(20, 'x'));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].oversized);
  // Still inside the abusive line: no duplicate report.
  EXPECT_TRUE(framer.Feed(std::string(20, 'y')).empty());
  // The newline ends the discard; the next line parses normally.
  auto after = framer.Feed("\nok\n");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].oversized);
  EXPECT_EQ(after[0].text, "ok");
}

/// The byte-at-a-time framer that LineFramer's bulk Feed replaced, kept as
/// the reference the bulk path must match call for call.
class ByteLineFramer {
 public:
  explicit ByteLineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  std::vector<LineFramer::Line> Feed(std::string_view data) {
    std::vector<LineFramer::Line> lines;
    for (char c : data) {
      if (discarding_) {
        if (c == '\n') {
          discarding_ = false;
          reported_ = false;
        }
        continue;
      }
      if (c == '\n') {
        LineFramer::Line line;
        line.text = std::move(buffer_);
        buffer_.clear();
        if (!line.text.empty() && line.text.back() == '\r') {
          line.text.pop_back();
        }
        lines.push_back(std::move(line));
        continue;
      }
      if (buffer_.size() >= max_line_bytes_) {
        buffer_.clear();
        discarding_ = true;
        if (!reported_) {
          reported_ = true;
          LineFramer::Line line;
          line.oversized = true;
          lines.push_back(std::move(line));
        }
        continue;
      }
      buffer_.push_back(c);
    }
    return lines;
  }

  size_t pending_bytes() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;
  std::string buffer_;
  bool discarding_ = false;
  bool reported_ = false;
};

/// A seeded NDJSON-ish stream: LF and CRLF endings, empty lines, lines of
/// max-1, max and max+1 bytes (with and without their CR), random bytes.
std::string RandomFramerStream(Rng* rng, size_t max_line_bytes) {
  std::string stream;
  const int line_count = static_cast<int>(rng->UniformRange(1, 24));
  for (int i = 0; i < line_count; ++i) {
    size_t length = 0;
    switch (rng->UniformInt(6)) {
      case 0:
        length = 0;
        break;
      case 1:
        length = max_line_bytes > 0 ? max_line_bytes - 1 : 0;
        break;
      case 2:
        length = max_line_bytes;
        break;
      case 3:
        length = max_line_bytes + 1;
        break;
      default:
        length = static_cast<size_t>(
            rng->UniformInt(std::min<uint64_t>(2 * max_line_bytes + 3, 600)));
    }
    for (size_t b = 0; b < length; ++b) {
      // Mostly printable; sometimes a stray CR mid-line.
      stream.push_back(rng->UniformInt(16) == 0
                           ? '\r'
                           : static_cast<char>('a' + rng->UniformInt(26)));
    }
    const uint64_t ending = rng->UniformInt(8);
    if (ending < 4) {
      stream += '\n';
    } else if (ending < 7) {
      stream += "\r\n";
    }  // else: no terminator, the line runs into the next one
  }
  return stream;
}

TEST(LineFramerTest, BulkFeedMatchesTheByteLoopAtEverySplit) {
  Rng rng(20261019);
  for (size_t max_line_bytes : {size_t{0}, size_t{1}, size_t{8},
                                size_t{4096}}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::string stream = RandomFramerStream(&rng, max_line_bytes);
      LineFramer bulk(max_line_bytes);
      ByteLineFramer bytes(max_line_bytes);
      size_t offset = 0;
      while (offset < stream.size()) {
        // Split at random points: single bytes, short and long chunks.
        const size_t remaining = stream.size() - offset;
        size_t chunk = rng.UniformInt(4) == 0
                           ? 1
                           : static_cast<size_t>(
                                 rng.UniformInt(remaining)) + 1;
        std::string_view data(stream.data() + offset, chunk);
        auto got = bulk.Feed(data);
        auto want = bytes.Feed(data);
        ASSERT_EQ(got.size(), want.size())
            << "max " << max_line_bytes << " trial " << trial;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].oversized, want[i].oversized);
          EXPECT_EQ(got[i].text, want[i].text);
        }
        ASSERT_EQ(bulk.pending_bytes(), bytes.pending_bytes())
            << "max " << max_line_bytes << " trial " << trial;
        offset += chunk;
      }
    }
  }
}

// --- URL codec ------------------------------------------------------------

TEST(UrlCodecTest, RoundTripsEveryByteValue) {
  std::string raw;
  for (int b = 0; b < 256; ++b) raw.push_back(static_cast<char>(b));
  auto decoded = UrlDecode(UrlEncode(raw));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, raw);
}

TEST(UrlCodecTest, MalformedEscapesAreTypedErrors) {
  EXPECT_FALSE(UrlDecode("%").ok());
  EXPECT_FALSE(UrlDecode("%2").ok());
  EXPECT_FALSE(UrlDecode("%zz").ok());
  EXPECT_TRUE(UrlDecode("%2F").ok());
}

TEST(UrlCodecTest, ParseTargetSplitsPathAndQuery) {
  std::string path;
  std::vector<std::pair<std::string, std::string>> query;
  ASSERT_TRUE(ParseTarget("/site3/search?q=deep+web&x=%26", &path, &query).ok());
  EXPECT_EQ(path, "/site3/search");
  ASSERT_EQ(query.size(), 2u);
  EXPECT_EQ(query[0].first, "q");
  EXPECT_EQ(query[0].second, "deep web");
  EXPECT_EQ(query[1].second, "&");
}

}  // namespace
}  // namespace thor::net
