#include "util/json_reader.h"

#include <cstdlib>

namespace jim::util {

Status ReadJsonValue(JsonLexer& lexer, size_t depth, JsonValue* out) {
  RETURN_IF_ERROR(lexer.BeginValue(depth));
  switch (lexer.Peek()) {
    case '{': {
      if (out != nullptr) *out = JsonValue::Object();
      std::string key;
      return lexer.ReadObject(key, [&](const std::string& name) -> Status {
        if (out == nullptr) return ReadJsonValue(lexer, depth + 1, nullptr);
        JsonValue member;
        RETURN_IF_ERROR(ReadJsonValue(lexer, depth + 1, &member));
        out->MutableObject()[name] = std::move(member);
        return OkStatus();
      });
    }
    case '[': {
      if (out != nullptr) *out = JsonValue::Array();
      return lexer.ReadArray([&]() -> Status {
        if (out == nullptr) return ReadJsonValue(lexer, depth + 1, nullptr);
        JsonValue element;
        RETURN_IF_ERROR(ReadJsonValue(lexer, depth + 1, &element));
        out->MutableArray().push_back(std::move(element));
        return OkStatus();
      });
    }
    case '"': {
      std::string s;
      RETURN_IF_ERROR(lexer.ReadString(s));
      if (out != nullptr) *out = JsonValue::Str(std::move(s));
      return OkStatus();
    }
    case 't':
      RETURN_IF_ERROR(lexer.ReadLiteral("true"));
      if (out != nullptr) *out = JsonValue::Bool(true);
      return OkStatus();
    case 'f':
      RETURN_IF_ERROR(lexer.ReadLiteral("false"));
      if (out != nullptr) *out = JsonValue::Bool(false);
      return OkStatus();
    case 'n':
      RETURN_IF_ERROR(lexer.ReadLiteral("null"));
      if (out != nullptr) *out = JsonValue::Null();
      return OkStatus();
    default: {
      JsonLexer::Number number;
      RETURN_IF_ERROR(lexer.ReadNumber(number));
      if (out != nullptr) {
        *out = number.is_int ? JsonValue::Int(number.as_int)
                             : JsonValue::Double(number.as_double);
      }
      return OkStatus();
    }
  }
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.int_valid_ = true;
  v.int_ = n;
  v.double_ = static_cast<double>(n);
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  if (!is_bool()) std::abort();
  return bool_;
}

int64_t JsonValue::AsInt64() const {
  if (!is_int()) std::abort();
  return int_;
}

double JsonValue::AsDouble() const {
  if (!is_number()) std::abort();
  return double_;
}

const std::string& JsonValue::AsString() const {
  if (!is_string()) std::abort();
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (!is_array()) std::abort();
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  if (!is_object()) std::abort();
  return object_;
}

std::vector<JsonValue>& JsonValue::MutableArray() {
  if (!is_array()) std::abort();
  return array_;
}

std::map<std::string, JsonValue>& JsonValue::MutableObject() {
  if (!is_object()) std::abort();
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_string()) return std::string(fallback);
  return member->AsString();
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_int()) return fallback;
  return member->AsInt64();
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_bool()) return fallback;
  return member->AsBool();
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  JsonLexer lexer(text);
  lexer.SkipWhitespace();
  JsonValue value;
  RETURN_IF_ERROR(ReadJsonValue(lexer, 0, &value));
  RETURN_IF_ERROR(lexer.ExpectEnd());
  return value;
}

}  // namespace jim::util
