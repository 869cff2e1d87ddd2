#ifndef JIM_UTIL_JSON_LEXER_H_
#define JIM_UTIL_JSON_LEXER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jim::util {

/// The one JSON scanner of the repo: whitespace, strings with every escape
/// (surrogate pairs included), numbers, literals, and the member / element
/// loops of objects and arrays. util::ParseJson builds a JsonValue tree on
/// it; serve::ParseRequest decodes a request object straight into its
/// struct. Both therefore accept the same grammar and report the same
/// errors: kInvalidArgument "json: <what> at offset <n>".
class JsonLexer {
 public:
  /// Containers nested deeper than this are rejected ("nesting too deep").
  static constexpr size_t kMaxDepth = 64;

  /// A number token: an integral token that fits int64 has is_int set;
  /// every number has as_double.
  struct Number {
    bool is_int = false;
    int64_t as_int = 0;
    double as_double = 0;
  };

  explicit JsonLexer(std::string_view text) : text_(text) {}

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= text_.size(); }
  /// The next byte; requires !AtEnd().
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// kInvalidArgument "json: <what> at offset <pos>".
  Status Error(std::string_view what) const;

  /// The checks every value read starts with: the nesting limit, then the
  /// end of input. `depth` is the number of enclosing containers.
  Status BeginValue(size_t depth) const {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (AtEnd()) return Error("unexpected end of input");
    return OkStatus();
  }

  /// Reads the string whose opening quote is next, decoded, into `out`
  /// (replacing its contents).
  Status ReadString(std::string& out);

  /// Reads the number token that starts here.
  Status ReadNumber(Number& out);

  /// Reads `word` ("true", "false" or "null").
  Status ReadLiteral(std::string_view word);

  /// After the top-level value: only whitespace may follow.
  Status ExpectEnd() {
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return OkStatus();
  }

  /// Reads the object whose '{' is next. For each member it decodes the key
  /// into `key` and calls read_member(key) with the lexer at the member's
  /// value, which read_member must consume. Duplicate keys are passed on
  /// in order; the caller decides (ParseJson and ParseRequest both keep the
  /// last).
  template <typename ReadMember>
  Status ReadObject(std::string& key, ReadMember&& read_member) {
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return OkStatus();
    while (true) {
      SkipWhitespace();
      if (AtEnd() || text_[pos_] != '"') return Error("expected string key");
      RETURN_IF_ERROR(ReadString(key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      RETURN_IF_ERROR(read_member(static_cast<const std::string&>(key)));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return OkStatus();
      return Error("expected ',' or '}'");
    }
  }

  /// Reads the array whose '[' is next, calling read_element() with the
  /// lexer at each element.
  template <typename ReadElement>
  Status ReadArray(ReadElement&& read_element) {
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return OkStatus();
    while (true) {
      SkipWhitespace();
      RETURN_IF_ERROR(read_element());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return OkStatus();
      return Error("expected ',' or ']'");
    }
  }

 private:
  Status ReadHex4(uint32_t& out);

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace jim::util

#endif  // JIM_UTIL_JSON_LEXER_H_
