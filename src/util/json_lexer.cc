#include "util/json_lexer.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "util/string_util.h"

namespace jim::util {
namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

void AppendUtf8(uint32_t cp, std::string& out) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

Status JsonLexer::Error(std::string_view what) const {
  return InvalidArgumentError(
      StrFormat("json: %s at offset %zu", std::string(what).c_str(), pos_));
}

Status JsonLexer::ReadLiteral(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) {
    return Error("invalid literal");
  }
  pos_ += word.size();
  return OkStatus();
}

Status JsonLexer::ReadString(std::string& out) {
  ++pos_;  // '"'
  out.clear();
  while (true) {
    // Copy the run of bytes that need no decoding in one append.
    size_t run_end = pos_;
    while (run_end < text_.size()) {
      const char c = text_[run_end];
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++run_end;
    }
    out.append(text_.data() + pos_, run_end - pos_);
    pos_ = run_end;
    if (pos_ >= text_.size()) return Error("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return OkStatus();
    if (c != '\\') return Error("unescaped control character in string");
    if (pos_ >= text_.size()) return Error("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"':
      case '\\':
      case '/':
        out.push_back(e);
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        uint32_t cp = 0;
        RETURN_IF_ERROR(ReadHex4(cp));
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: require the paired low surrogate.
          if (!Consume('\\') || !Consume('u')) {
            return Error("unpaired surrogate");
          }
          uint32_t low = 0;
          RETURN_IF_ERROR(ReadHex4(low));
          if (low < 0xDC00 || low > 0xDFFF) {
            return Error("invalid low surrogate");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Error("unpaired surrogate");
        }
        AppendUtf8(cp, out);
        break;
      }
      default:
        return Error("invalid escape");
    }
  }
}

Status JsonLexer::ReadHex4(uint32_t& out) {
  if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
  out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Error("invalid hex digit in \\u escape");
    }
    out = (out << 4) | digit;
  }
  return OkStatus();
}

Status JsonLexer::ReadNumber(Number& out) {
  const size_t start = pos_;
  Consume('-');
  if (AtEnd() || !IsDigit(text_[pos_])) return Error("invalid number");
  // JSON forbids leading zeros: "0" is fine, "01" is not.
  if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
      IsDigit(text_[pos_ + 1])) {
    return Error("invalid number");
  }
  bool integral = true;
  while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
  if (Consume('.')) {
    integral = false;
    if (AtEnd() || !IsDigit(text_[pos_])) return Error("invalid number");
    while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
  }
  if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (AtEnd() || !IsDigit(text_[pos_])) return Error("invalid number");
    while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (integral) {
    int64_t value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && end == last) {
      out.is_int = true;
      out.as_int = value;
      out.as_double = static_cast<double>(value);
      return OkStatus();
    }
    // Out-of-int64-range integral token: fall through to double.
  }
  const std::string token(first, last);
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    return Error("number out of range");
  }
  out.is_int = false;
  out.as_int = 0;
  out.as_double = d;
  return OkStatus();
}

}  // namespace jim::util
