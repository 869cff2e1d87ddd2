// The wire contract of the serving protocol: request parsing (typed errors
// for malformed lines, presence flags for optional members), error-line
// round-trips (a daemon-side Status survives the wire as the same code),
// and RequestToLine/ParseRequest inversion.

#include "serve/protocol.h"

#include <string>

#include "gtest/gtest.h"
#include "util/json_reader.h"
#include "util/status.h"

namespace jim::serve {
namespace {

TEST(ProtocolTest, ParsesFullCreateRequest) {
  auto parsed = ParseRequest(
      R"({"verb":"create","instance":"f.jimc","strategy":"random",)"
      R"("goal":"To=City","seed":9,"max_steps":50})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, "create");
  EXPECT_EQ(parsed->instance, "f.jimc");
  EXPECT_EQ(parsed->strategy, "random");
  EXPECT_EQ(parsed->goal, "To=City");
  EXPECT_EQ(parsed->seed, 9u);
  EXPECT_EQ(parsed->max_steps, 50u);
  EXPECT_FALSE(parsed->has_class_id);
  EXPECT_FALSE(parsed->has_answer);
}

TEST(ProtocolTest, DefaultsApplyWhenMembersAbsent) {
  auto parsed = ParseRequest(R"({"verb":"create"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // An absent strategy stays absent; create runs the default.
  EXPECT_FALSE(parsed->strategy.has_value());
  EXPECT_EQ(parsed->strategy_name(), "lookahead-entropy");
  EXPECT_EQ(parsed->seed, 1u);
  EXPECT_EQ(parsed->max_steps, 0u);
  EXPECT_TRUE(parsed->instance.empty());
  EXPECT_TRUE(parsed->goal.empty());
}

TEST(ProtocolTest, LabelMembersCarryPresenceFlags) {
  auto parsed = ParseRequest(
      R"({"verb":"label","session":"s1","class":3,"answer":false})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->has_class_id);
  EXPECT_EQ(parsed->class_id, 3u);
  EXPECT_TRUE(parsed->has_answer);
  EXPECT_FALSE(parsed->answer);
}

TEST(ProtocolTest, RejectsMalformedLines) {
  for (const char* bad :
       {"", "not json", "[1,2]", "42", R"({"session":"s1"})",
        R"({"verb":7})", R"({"verb":"label","class":"three"})",
        R"({"verb":"label","answer":"yes"})",
        R"({"verb":"create","seed":-1})"}) {
    auto parsed = ParseRequest(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
          << bad;
    }
  }
}

TEST(ProtocolTest, RequestToLineRoundTrips) {
  Request request;
  request.verb = "create";
  request.instance = "path/with \"quotes\".jimc";
  request.strategy = "lookahead-minmax";
  request.goal = "To=City && Airline=Discount";
  request.seed = 123;
  request.max_steps = 7;
  auto parsed = ParseRequest(RequestToLine(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->verb, request.verb);
  EXPECT_EQ(parsed->instance, request.instance);
  EXPECT_EQ(parsed->strategy, request.strategy);
  EXPECT_EQ(parsed->goal, request.goal);
  EXPECT_EQ(parsed->seed, request.seed);
  EXPECT_EQ(parsed->max_steps, request.max_steps);
}

TEST(ProtocolTest, ErrorLineRoundTripsStatusCodes) {
  for (const util::Status& status :
       {util::ResourceExhaustedError("session limit reached"),
        util::NotFoundError("no session 's9'"),
        util::InvalidArgumentError("bad goal"),
        util::FailedPreconditionError("session is done"),
        util::InternalError("replay diverged")}) {
    const std::string line = ErrorLine(status);
    auto parsed = util::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_FALSE(parsed->GetBool("ok", true)) << line;
    const util::Status decoded = StatusFromErrorName(
        parsed->GetString("error", ""), parsed->GetString("message", ""));
    EXPECT_EQ(decoded.code(), status.code()) << line;
    EXPECT_EQ(decoded.message(), status.message()) << line;
  }
}

TEST(ProtocolTest, ErrorNameFallsBackToInternal) {
  EXPECT_EQ(StatusFromErrorName("NO_SUCH_CODE", "m").code(),
            util::StatusCode::kInternal);
}

}  // namespace
}  // namespace jim::serve
