#ifndef JIM_SERVE_PROTOCOL_H_
#define JIM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jim::serve {

/// The strategy a `create` without a `strategy` member runs.
inline constexpr std::string_view kDefaultStrategy = "lookahead-entropy";

/// One request of the newline-delimited-JSON serving protocol. Every
/// request is a single-line JSON object with a `verb` member; the other
/// members a verb reads are documented in src/serve/README.md:
///
///   {"verb":"create","instance":"travel.jimc","strategy":"lookahead-entropy",
///    "goal":"To=City","seed":7,"max_steps":64}
///   {"verb":"suggest","session":"s1"}
///   {"verb":"label","session":"s1","class":12,"answer":true}
///   {"verb":"status","session":"s1"}   ... likewise result / close
///   {"verb":"ping"} {"verb":"stats"} {"verb":"shutdown"}
///
/// Responses are single-line JSON objects with an `ok` member; errors carry
/// the stable StatusCode name plus the message:
///   {"ok":false,"error":"RESOURCE_EXHAUSTED","message":"..."}
struct Request {
  std::string verb;
  std::string session;
  std::string instance;  ///< empty = the daemon's default instance
  /// As sent; absent means kDefaultStrategy. The default is not stored: it
  /// is longer than a small-string buffer, so storing it would cost every
  /// request of every verb a heap allocation that only `create` reads.
  std::optional<std::string> strategy;
  std::string goal;      ///< optional reference goal (enables goal checks)
  uint64_t seed = 1;
  uint64_t max_steps = 0;  ///< 0 = the daemon's default per-session cap
  uint64_t class_id = 0;
  bool has_class_id = false;
  bool answer = false;
  bool has_answer = false;

  /// The strategy `create` runs: `strategy`, or kDefaultStrategy.
  std::string_view strategy_name() const {
    return strategy.has_value() ? std::string_view(*strategy)
                                : kDefaultStrategy;
  }
};

/// Parses one request line. kInvalidArgument on malformed JSON, a missing /
/// non-string `verb`, or a wrongly-typed member.
///
/// One pass over the line with util::JsonLexer, decoding the top-level
/// object straight into the Request (no JsonValue tree). Every byte is
/// still validated: unknown members are read and checked as JSON, nested
/// values included. When a key repeats, the last occurrence wins and its
/// type is the one checked. A malformed line reports the JSON error even
/// when an earlier member had the wrong type; type errors are reported in
/// the member order verb, session, instance, strategy, goal, seed,
/// max_steps, class, answer.
util::StatusOr<Request> ParseRequest(std::string_view line);

/// Serializes `request` back to a protocol line (used by the client driver;
/// only members that deviate from their defaults are emitted).
std::string RequestToLine(const Request& request);

/// The error-response line for `status`:
///   {"ok":false,"error":"<CODE>","message":"<message>"}
std::string ErrorLine(const util::Status& status);

/// Maps an error-response object's `error` name back to a typed Status
/// (inverse of ErrorLine; unknown names map to kInternal).
util::Status StatusFromErrorName(std::string_view name, std::string message);

}  // namespace jim::serve

#endif  // JIM_SERVE_PROTOCOL_H_
