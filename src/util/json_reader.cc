#include "src/util/json_reader.h"

#include <cstdint>
#include <cstdlib>
#include <utility>

#include "src/util/strings.h"

namespace thor {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue value;
    THOR_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters after JSON value");
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() && IsAsciiSpace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    if (++depth_ > kMaxDepth) {
      return Status::ParseError("JSON nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of JSON input");
    }
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ParseObject(out);
        break;
      case '[':
        status = ParseArray(out);
        break;
      case '"':
        status = ParseString(&out->string_value_);
        out->type_ = JsonValue::Type::kString;
        break;
      case 't':
      case 'f':
        status = ParseKeyword(out);
        break;
      case 'n':
        status = ParseNull(out);
        break;
      default:
        status = ParseNumber(out);
    }
    --depth_;
    return status;
  }

  Status ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::ParseError("expected object key string");
      }
      THOR_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Status::ParseError("expected ':'");
      JsonValue value;
      THOR_RETURN_IF_ERROR(ParseValue(&value));
      out->object_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Status::ParseError("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      THOR_RETURN_IF_ERROR(ParseValue(&value));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Status::ParseError("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Status::ParseError("truncated \\u escape");
            }
            uint32_t code = 0;
            if (!ReadHex4(pos_, &code)) {
              return Status::ParseError("bad \\u escape digit");
            }
            pos_ += 4;
            uint32_t low = 0;
            if (code >= 0xD800 && code <= 0xDBFF &&
                text_.compare(pos_, 2, "\\u") == 0 &&
                ReadHex4(pos_ + 2, &low) && low >= 0xDC00 && low <= 0xDFFF) {
              // A high surrogate joins the low one escaped right after it.
              pos_ += 6;
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xD800 && code <= 0xDFFF) {
              code = 0xFFFD;  // an unpaired surrogate
            }
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code < 0x10000) {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xF0 | (code >> 18)));
              out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Status::ParseError("unknown escape sequence");
        }
        continue;
      }
      // Copy the run up to the next quote or backslash in one append.
      size_t run_end = pos_ + 1;
      while (run_end < text_.size() && text_[run_end] != '"' &&
             text_[run_end] != '\\') {
        ++run_end;
      }
      out->append(text_.data() + pos_, run_end - pos_);
      pos_ = run_end;
    }
    return Status::ParseError("unterminated string");
  }

  // Reads the four hex digits at `at`, if there are four.
  bool ReadHex4(size_t at, uint32_t* code) const {
    if (at + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (size_t i = at; i < at + 4; ++i) {
      char d = text_[i];
      value <<= 4;
      if (d >= '0' && d <= '9') {
        value |= static_cast<uint32_t>(d - '0');
      } else if (d >= 'a' && d <= 'f') {
        value |= static_cast<uint32_t>(d - 'a' + 10);
      } else if (d >= 'A' && d <= 'F') {
        value |= static_cast<uint32_t>(d - 'A' + 10);
      } else {
        return false;
      }
    }
    *code = value;
    return true;
  }

  Status ParseKeyword(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->type_ = JsonValue::Type::kBool;
      out->bool_value_ = true;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->type_ = JsonValue::Type::kBool;
      out->bool_value_ = false;
      return Status::OK();
    }
    return Status::ParseError("unknown keyword");
  }

  Status ParseNull(JsonValue* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->type_ = JsonValue::Type::kNull;
      return Status::OK();
    }
    return Status::ParseError("unknown keyword");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (IsAsciiDigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Status::ParseError("invalid JSON value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::ParseError("invalid number: " + token);
    }
    out->type_ = JsonValue::Type::kNumber;
    out->number_value_ = value;
    return Status::OK();
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue* JsonValue::Find(std::string_view key) {
  return const_cast<JsonValue*>(std::as_const(*this).Find(key));
}

}  // namespace thor
