// The reference request decoder serve::ParseRequest is pinned to: the
// tree-based decoder the daemon used before it. It parses the whole line
// with util::ParseJson into a JsonValue tree, then looks each known member
// up in the top-level object and checks its type, in the order verb,
// session, instance, strategy, goal, seed, max_steps, class, answer.

#ifndef JIM_TESTS_SERVE_NAIVE_PROTOCOL_H_
#define JIM_TESTS_SERVE_NAIVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "util/json_reader.h"
#include "util/status.h"
#include "util/string_util.h"

namespace jim::serve {
namespace naive {

/// Reads an optional string member into `out`; present-but-wrong-kind is a
/// typed error.
inline util::Status ReadString(const util::JsonValue& object,
                               std::string_view key, std::string& out) {
  const util::JsonValue* member = object.Find(key);
  if (member == nullptr) return util::OkStatus();
  if (!member->is_string()) {
    return util::InvalidArgumentError(
        util::StrFormat("request member '%s' must be a string",
                        std::string(key).c_str()));
  }
  out = member->AsString();
  return util::OkStatus();
}

inline util::Status ReadUint(const util::JsonValue& object,
                             std::string_view key, uint64_t& out,
                             bool& present) {
  const util::JsonValue* member = object.Find(key);
  present = member != nullptr;
  if (member == nullptr) return util::OkStatus();
  if (!member->is_int() || member->AsInt64() < 0) {
    return util::InvalidArgumentError(
        util::StrFormat("request member '%s' must be a non-negative integer",
                        std::string(key).c_str()));
  }
  out = static_cast<uint64_t>(member->AsInt64());
  return util::OkStatus();
}

}  // namespace naive

inline util::StatusOr<Request> NaiveParseRequest(std::string_view line) {
  ASSIGN_OR_RETURN(util::JsonValue document, util::ParseJson(line));
  if (!document.is_object()) {
    return util::InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  RETURN_IF_ERROR(naive::ReadString(document, "verb", request.verb));
  if (request.verb.empty()) {
    return util::InvalidArgumentError("request is missing the 'verb' member");
  }
  RETURN_IF_ERROR(naive::ReadString(document, "session", request.session));
  RETURN_IF_ERROR(naive::ReadString(document, "instance", request.instance));
  // Request keeps an absent strategy absent (see Request::strategy).
  if (document.Find("strategy") != nullptr) {
    std::string strategy;
    RETURN_IF_ERROR(naive::ReadString(document, "strategy", strategy));
    request.strategy = std::move(strategy);
  }
  RETURN_IF_ERROR(naive::ReadString(document, "goal", request.goal));
  bool present = false;
  RETURN_IF_ERROR(naive::ReadUint(document, "seed", request.seed, present));
  RETURN_IF_ERROR(
      naive::ReadUint(document, "max_steps", request.max_steps, present));
  RETURN_IF_ERROR(naive::ReadUint(document, "class", request.class_id,
                                  request.has_class_id));
  const util::JsonValue* answer = document.Find("answer");
  if (answer != nullptr) {
    if (!answer->is_bool()) {
      return util::InvalidArgumentError(
          "request member 'answer' must be a boolean");
    }
    request.answer = answer->AsBool();
    request.has_answer = true;
  }
  return request;
}

}  // namespace jim::serve

#endif  // JIM_TESTS_SERVE_NAIVE_PROTOCOL_H_
