#include "fuzz/fuzz_targets.h"

#include <fstream>
#include <vector>

#include "core/join_predicate.h"
#include "core/naive_join_predicate_parse.h"
#include "relational/dictionary.h"
#include "relational/schema.h"
#include "serve/naive_protocol.h"
#include "serve/protocol.h"
#include "storage/mapped_store.h"
#include "util/check.h"
#include "util/json_reader.h"
#include "util/status.h"

namespace jim::fuzz {

namespace {

/// The schema every goal-parse iteration runs against: the paper's running
/// example plus a qualified attribute, so bare and qualified spellings both
/// have something to resolve to.
const rel::Schema& GoalSchema() {
  static const rel::Schema* schema = [] {
    auto* s = new rel::Schema();
    s->AddAttribute({"From", rel::ValueType::kString, ""});
    s->AddAttribute({"To", rel::ValueType::kString, ""});
    s->AddAttribute({"City", rel::ValueType::kString, "Hotels"});
    s->AddAttribute({"Airline", rel::ValueType::kString, ""});
    s->AddAttribute({"Discount", rel::ValueType::kString, ""});
    return s;
  }();
  return *schema;
}

/// Checks the rejection contract of the request parsers: kInvalidArgument
/// with a message, and an ErrorLine the client side maps back to the same
/// code.
void CheckRequestRejection(const util::Status& status, const char* parser) {
  JIM_CHECK(status.code() == util::StatusCode::kInvalidArgument)
      << "unexpected " << parser << " rejection code: " << status.ToString();
  JIM_CHECK(!status.message().empty())
      << parser << " rejection without a diagnostic message";
  auto response = util::ParseJson(serve::ErrorLine(status));
  JIM_CHECK(response.ok()) << "ErrorLine does not parse: "
                           << response.status().ToString();
  JIM_CHECK(serve::StatusFromErrorName(response->GetString("error", ""),
                                       response->GetString("message", ""))
                .code() == status.code())
      << "ErrorLine lost the status code of " << status.ToString();
}

/// Reads every node of `value` through its typed accessors; returns a
/// digest so the walk cannot be dead-read-eliminated.
uint64_t WalkJson(const util::JsonValue& value) {
  if (value.is_bool()) return value.AsBool() ? 3 : 5;
  if (value.is_number()) {
    const double number = value.AsDouble();
    uint64_t digest = number == number ? 7 : 11;  // NaN never parses
    if (value.is_int()) digest += static_cast<uint64_t>(value.AsInt64());
    return digest;
  }
  if (value.is_string()) return value.AsString().size();
  uint64_t digest = 13;
  if (value.is_array()) {
    for (const util::JsonValue& element : value.AsArray()) {
      digest = digest * 31 + WalkJson(element);
    }
  } else if (value.is_object()) {
    for (const auto& [key, member] : value.AsObject()) {
      JIM_CHECK(value.Find(key) == &member) << "object lookup drift";
      digest = digest * 31 + key.size() + WalkJson(member);
    }
  }
  return digest;
}

}  // namespace

int FuzzJimcImage(const uint8_t* data, size_t size,
                  const std::string& scratch_path) {
  {
    std::ofstream out(scratch_path, std::ios::binary | std::ios::trunc);
    JIM_CHECK(out.good()) << "cannot stage fuzz image at " << scratch_path;
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    JIM_CHECK(out.good()) << "short write staging fuzz image";
  }
  auto opened = storage::MappedTupleStore::Open(scratch_path);
  if (!opened.ok()) {
    const util::Status& status = opened.status();
    // A rejection must be one of Open's documented error codes — an
    // unknown code would mean some validation branch leaks an untyped or
    // mis-typed failure.
    const util::StatusCode code = status.code();
    JIM_CHECK(code == util::StatusCode::kInvalidArgument ||
              code == util::StatusCode::kNotFound ||
              code == util::StatusCode::kInternal ||
              code == util::StatusCode::kUnimplemented)
        << "unexpected rejection code: " << status.ToString();
    JIM_CHECK(!status.message().empty())
        << "rejection without a diagnostic message";
    return 0;
  }

  // Accepted: Open promised every later access is safe, so take it at its
  // word and read everything. The sanitizers (and the mapping bounds) are
  // the referee; `mix` defeats dead-read elimination.
  const auto& store = **opened;
  JIM_CHECK_EQ(store.num_attributes(), store.schema().num_attributes());
  uint64_t mix = store.name().size();
  const size_t columns = store.num_attributes();
  std::vector<uint32_t> row(columns);
  for (size_t t = 0; t < store.num_tuples(); ++t) {
    store.TupleCodes(t, row.data());
    for (size_t a = 0; a < columns; ++a) {
      JIM_CHECK_EQ(row[a], store.code(t, a))
          << "TupleCodes vs code() drift at (" << t << ", " << a << ")";
      const rel::Value value = store.DecodeValue(t, a);
      JIM_CHECK_EQ(value.is_null(), row[a] == rel::kNullCode)
          << "NULL sentinel drift at (" << t << ", " << a << ")";
      mix = mix * 1099511628211ull + row[a];
      if (!value.is_null()) mix += value.ToString().size();
    }
  }
  store.CheckInvariants();
  // Volatile sink: the cell scan above must not be dead-read-eliminated.
  volatile uint64_t sink = mix;
  (void)sink;
  return 1;
}

int FuzzGoalParse(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto parsed = core::JoinPredicate::Parse(GoalSchema(), text);
  // The one-pass parser must match the multi-pass reference exactly.
  auto naive = core::NaiveParseGoal(GoalSchema(), text);
  JIM_CHECK(parsed.ok() == naive.ok() &&
            (parsed.ok() ? parsed->partition() == *naive
                         : parsed.status() == naive.status()))
      << "Parse and the reference goal parser disagree: "
      << (parsed.ok() ? parsed->partition().ToString()
                      : parsed.status().ToString())
      << " vs "
      << (naive.ok() ? naive->ToString() : naive.status().ToString());
  if (!parsed.ok()) {
    // Every rejection — malformed syntax and unknown attribute names alike —
    // is kInvalidArgument: the input text is bad, nothing is "missing"
    // (kNotFound stays reserved for absent files/relations). Anything else
    // leaks.
    const util::StatusCode code = parsed.status().code();
    JIM_CHECK(code == util::StatusCode::kInvalidArgument)
        << "unexpected goal rejection code: " << parsed.status().ToString();
    JIM_CHECK(!parsed.status().message().empty())
        << "goal rejection without a diagnostic message";
    return 0;
  }
  const core::JoinPredicate& predicate = *parsed;
  // Whatever Parse accepts must be a canonical partition over the schema.
  predicate.partition().CheckInvariants();
  JIM_CHECK_EQ(predicate.num_attributes(),
               GoalSchema().num_attributes());
  (void)predicate.ToString();
  // Non-empty predicates must round-trip through their SQL rendering (the
  // empty predicate renders as "TRUE", which Parse deliberately rejects).
  if (!predicate.IsEmptyPredicate()) {
    auto reparsed =
        core::JoinPredicate::Parse(GoalSchema(), predicate.ToSqlWhere());
    JIM_CHECK(reparsed.ok())
        << "ToSqlWhere of an accepted goal does not re-parse: "
        << predicate.ToSqlWhere();
    JIM_CHECK(*reparsed == predicate)
        << "goal round trip changed the predicate: " << predicate.ToString()
        << " vs " << reparsed->ToString();
  }
  return 1;
}

int FuzzRequestParse(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  auto document = util::ParseJson(line);
  if (document.ok()) {
    volatile uint64_t sink = WalkJson(*document);
    (void)sink;
  } else {
    CheckRequestRejection(document.status(), "ParseJson");
  }
  auto parsed = serve::ParseRequest(line);
  // The one-pass decoder must decide every line exactly as the tree-based
  // reference does: same verdict, same error, same decoded members.
  auto naive = serve::NaiveParseRequest(line);
  JIM_CHECK(parsed.ok() == naive.ok())
      << "ParseRequest and the reference decoder disagree: "
      << (parsed.ok() ? naive.status() : parsed.status()).ToString();
  if (!parsed.ok()) {
    JIM_CHECK(parsed.status() == naive.status())
        << "ParseRequest error " << parsed.status().ToString()
        << " vs reference " << naive.status().ToString();
    CheckRequestRejection(parsed.status(), "ParseRequest");
    return 0;
  }
  JIM_CHECK(parsed->verb == naive->verb && parsed->session == naive->session &&
            parsed->instance == naive->instance &&
            parsed->strategy == naive->strategy &&
            parsed->goal == naive->goal && parsed->seed == naive->seed &&
            parsed->max_steps == naive->max_steps &&
            parsed->has_class_id == naive->has_class_id &&
            parsed->class_id == naive->class_id &&
            parsed->has_answer == naive->has_answer &&
            parsed->answer == naive->answer)
      << "ParseRequest and the reference decoder decoded different members";
  // ParseRequest and ParseJson share one lexer and one grammar, so a line
  // ParseRequest accepts is a JSON document ParseJson accepts too.
  JIM_CHECK(document.ok()) << "ParseRequest accepted what ParseJson rejects";
  const serve::Request& request = *parsed;
  JIM_CHECK(!request.verb.empty()) << "accepted request without a verb";
  // The client driver's serialization must re-parse to the same request.
  const std::string rendered = serve::RequestToLine(request);
  auto reparsed = serve::ParseRequest(rendered);
  JIM_CHECK(reparsed.ok()) << "RequestToLine output does not re-parse: "
                           << rendered;
  JIM_CHECK(reparsed->verb == request.verb &&
            reparsed->session == request.session &&
            reparsed->instance == request.instance &&
            reparsed->has_class_id == request.has_class_id &&
            reparsed->class_id == request.class_id &&
            reparsed->has_answer == request.has_answer &&
            reparsed->answer == request.answer)
      << "request round trip changed a member: " << rendered;
  if (request.verb == "create") {
    JIM_CHECK(reparsed->strategy_name() == request.strategy_name() &&
              reparsed->goal == request.goal &&
              reparsed->seed == request.seed &&
              reparsed->max_steps == request.max_steps)
        << "create round trip changed a member: " << rendered;
  }
  return 1;
}

}  // namespace jim::fuzz
