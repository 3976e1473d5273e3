#ifndef THOR_UTIL_JSON_READER_H_
#define THOR_UTIL_JSON_READER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace thor {

/// \brief Minimal JSON document value (RFC 8259), parsed by
/// `JsonValue::Parse`. A `\u` surrogate pair decodes to one UTF-8 code
/// point; an unpaired surrogate decodes to U+FFFD.
///
/// Counterpart of JsonWriter; used to load persisted extraction templates.
/// Object member order is preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// Parses a complete JSON document (surrounding whitespace allowed);
  /// trailing garbage is an error.
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_value_; }
  double AsDouble() const { return number_value_; }
  long long AsInt() const { return static_cast<long long>(number_value_); }
  const std::string& AsString() const { return string_value_; }
  /// Moves the string out, leaving this value's string empty.
  std::string TakeString() { return std::exchange(string_value_, {}); }

  /// Array access; empty for non-arrays.
  const std::vector<JsonValue>& items() const { return array_; }

  /// Object access; nullptr when the key is absent or this is not an
  /// object.
  const JsonValue* Find(std::string_view key) const;
  JsonValue* Find(std::string_view key);
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_value_ = false;
  double number_value_ = 0.0;
  std::string string_value_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace thor

#endif  // THOR_UTIL_JSON_READER_H_
