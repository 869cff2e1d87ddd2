#include "serve/protocol.h"

#include "util/json_lexer.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace jim::serve {
namespace {

/// The members ParseRequest decodes, in the order their types are checked.
enum Field {
  kVerb,
  kSession,
  kInstance,
  kStrategy,
  kGoal,
  kSeed,
  kMaxSteps,
  kClass,
  kAnswer,
  kNumFields
};

constexpr std::string_view kFieldNames[kNumFields] = {
    "verb", "session", "instance", "strategy", "goal",
    "seed", "max_steps", "class", "answer"};

/// Where a known member stands once the line is read. The last occurrence
/// of a repeated key overwrites what the earlier ones left.
enum class Member : uint8_t { kAbsent, kOk, kWrongType };

int FieldOf(std::string_view key) {
  for (int field = 0; field < kNumFields; ++field) {
    if (kFieldNames[field] == key) return field;
  }
  return -1;
}

util::Status WrongTypeError(int field) {
  const char* kind = field <= kGoal    ? "a string"
                     : field <= kClass ? "a non-negative integer"
                                       : "a boolean";
  return util::InvalidArgumentError(
      util::StrFormat("request member '%s' must be %s",
                      std::string(kFieldNames[field]).c_str(), kind));
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Reads a member's value. A value of the member's type is decoded into
/// `out`; any other value is read and validated as JSON and marks the
/// member kWrongType.
util::Status ReadMember(util::JsonLexer& lexer, std::string& out,
                        Member& state) {
  if (!lexer.AtEnd() && lexer.Peek() == '"') {
    state = Member::kOk;
    return lexer.ReadString(out);
  }
  state = Member::kWrongType;
  return util::ReadJsonValue(lexer, 1, nullptr);
}

util::Status ReadMember(util::JsonLexer& lexer, uint64_t& out,
                        Member& state) {
  if (!lexer.AtEnd() && (lexer.Peek() == '-' || IsDigit(lexer.Peek()))) {
    util::JsonLexer::Number number;
    RETURN_IF_ERROR(lexer.ReadNumber(number));
    const bool ok = number.is_int && number.as_int >= 0;
    state = ok ? Member::kOk : Member::kWrongType;
    if (ok) out = static_cast<uint64_t>(number.as_int);
    return util::OkStatus();
  }
  state = Member::kWrongType;
  return util::ReadJsonValue(lexer, 1, nullptr);
}

util::Status ReadMember(util::JsonLexer& lexer, bool& out, Member& state) {
  if (!lexer.AtEnd() && (lexer.Peek() == 't' || lexer.Peek() == 'f')) {
    const bool value = lexer.Peek() == 't';
    RETURN_IF_ERROR(lexer.ReadLiteral(value ? "true" : "false"));
    state = Member::kOk;
    out = value;
    return util::OkStatus();
  }
  state = Member::kWrongType;
  return util::ReadJsonValue(lexer, 1, nullptr);
}

}  // namespace

util::StatusOr<Request> ParseRequest(std::string_view line) {
  util::JsonLexer lexer(line);
  lexer.SkipWhitespace();
  if (lexer.AtEnd() || lexer.Peek() != '{') {
    // A line that is not JSON reports the JSON error, as ParseJson would.
    RETURN_IF_ERROR(util::ReadJsonValue(lexer, 0, nullptr));
    RETURN_IF_ERROR(lexer.ExpectEnd());
    return util::InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  Member state[kNumFields] = {};
  std::string key;
  RETURN_IF_ERROR(lexer.ReadObject(
      key, [&](const std::string& name) -> util::Status {
        const int field = FieldOf(name);
        switch (field) {
          case kVerb:
            return ReadMember(lexer, request.verb, state[field]);
          case kSession:
            return ReadMember(lexer, request.session, state[field]);
          case kInstance:
            return ReadMember(lexer, request.instance, state[field]);
          case kStrategy:
            if (!request.strategy.has_value()) request.strategy.emplace();
            return ReadMember(lexer, *request.strategy, state[field]);
          case kGoal:
            return ReadMember(lexer, request.goal, state[field]);
          case kSeed:
            return ReadMember(lexer, request.seed, state[field]);
          case kMaxSteps:
            return ReadMember(lexer, request.max_steps, state[field]);
          case kClass:
            return ReadMember(lexer, request.class_id, state[field]);
          case kAnswer:
            return ReadMember(lexer, request.answer, state[field]);
          default:
            return util::ReadJsonValue(lexer, 1, nullptr);
        }
      }));
  RETURN_IF_ERROR(lexer.ExpectEnd());
  if (state[kVerb] == Member::kWrongType) return WrongTypeError(kVerb);
  if (request.verb.empty()) {
    return util::InvalidArgumentError("request is missing the 'verb' member");
  }
  for (int field = kSession; field < kNumFields; ++field) {
    if (state[field] == Member::kWrongType) return WrongTypeError(field);
  }
  request.has_class_id = state[kClass] == Member::kOk;
  request.has_answer = state[kAnswer] == Member::kOk;
  return request;
}

std::string RequestToLine(const Request& request) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("verb", request.verb);
  if (!request.session.empty()) json.KeyValue("session", request.session);
  if (!request.instance.empty()) json.KeyValue("instance", request.instance);
  if (request.verb == "create") {
    json.KeyValue("strategy", request.strategy_name());
    if (!request.goal.empty()) json.KeyValue("goal", request.goal);
    json.KeyValue("seed", request.seed);
    if (request.max_steps != 0) json.KeyValue("max_steps", request.max_steps);
  }
  if (request.has_class_id) json.KeyValue("class", request.class_id);
  if (request.has_answer) json.KeyValue("answer", request.answer);
  json.EndObject();
  return json.str();
}

std::string ErrorLine(const util::Status& status) {
  util::JsonWriter json;
  json.BeginObject();
  json.KeyValue("ok", false);
  json.KeyValue("error", util::StatusCodeToString(status.code()));
  json.KeyValue("message", status.message());
  json.EndObject();
  return json.str();
}

util::Status StatusFromErrorName(std::string_view name, std::string message) {
  for (int code = 1; code <= static_cast<int>(util::StatusCode::kUnavailable);
       ++code) {
    auto status_code = static_cast<util::StatusCode>(code);
    if (util::StatusCodeToString(status_code) == name) {
      return util::Status(status_code, std::move(message));
    }
  }
  return util::InternalError(std::move(message));
}

}  // namespace jim::serve
