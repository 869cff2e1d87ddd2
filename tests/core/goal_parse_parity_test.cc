// JoinPredicate::ParsePartition (one pass, no intermediate strings) against
// the multi-pass reference parser in naive_join_predicate_parse.h. For
// every text both must agree on acceptance, on the partition, and on a
// rejection's code and exact message. The corpus is every goal text of
// join_predicate_test plus seeded texts over every separator spelling
// ("&&", "&", "∧", "and" in any case), both equality spellings ("=", "≈"),
// empty conjuncts, bare / qualified / unknown / ambiguous names, and
// byte-level mutations of all of them (truncated UTF-8 sequences included).

#include <string>
#include <vector>

#include "core/join_predicate.h"
#include "gtest/gtest.h"
#include "relational/schema.h"
#include "util/rng.h"
#include "util/status.h"
#include "naive_join_predicate_parse.h"

namespace jim::core {
namespace {

/// join_predicate_test's travel schema.
rel::Schema TravelSchema() {
  return rel::Schema::FromNames({"From", "To", "Airline", "City", "Discount"});
}

/// Bare, qualified and ambiguous names: "City" matches two attributes, so
/// only "Hotels.City" and "Flights.City" resolve; "And" is an attribute
/// whose name is also a separator word.
rel::Schema QualifiedSchema() {
  rel::Schema schema;
  schema.AddAttribute({"From", rel::ValueType::kString, "Flights"});
  schema.AddAttribute({"To", rel::ValueType::kString, "Flights"});
  schema.AddAttribute({"City", rel::ValueType::kString, "Flights"});
  schema.AddAttribute({"City", rel::ValueType::kString, "Hotels"});
  schema.AddAttribute({"Airline", rel::ValueType::kString, ""});
  schema.AddAttribute({"And", rel::ValueType::kString, ""});
  schema.AddAttribute({"Discount", rel::ValueType::kString, "Hotels"});
  return schema;
}

std::string Describe(const util::StatusOr<lat::Partition>& parsed) {
  return parsed.ok() ? "ok " + parsed->ToString()
                     : "error " + parsed.status().ToString();
}

void ExpectSameParse(const rel::Schema& schema, const std::string& text) {
  EXPECT_EQ(Describe(JoinPredicate::ParsePartition(schema, text)),
            Describe(NaiveParseGoal(schema, text)))
      << "text: " << text;
}

/// Every goal text join_predicate_test parses.
const std::vector<std::string>& JoinPredicateTestTexts() {
  static const std::vector<std::string> texts = {
      "To=City",
      "To=City && Airline=Discount",
      "To=City AND Airline=Discount",
      "To=City and Airline=Discount",
      "To=City & Airline=Discount",
      "To = City &&  Airline = Discount",
      "To\xE2\x89\x88" "City \xE2\x88\xA7 Airline=Discount",
      "",
      "From=To && To=City",
      "To=Nowhere",
      "To City",
      "To=City=From",
  };
  return texts;
}

/// Texts aimed at one parser rule each.
const std::vector<std::string>& EdgeTexts() {
  static const std::vector<std::string> texts = {
      "&&", "&", " & & ", "To=City &&", "&& To=City", "To=City && && From=To",
      "and", "AND", " and ", "To=City and", "and To=City",
      "To=City andAirline=Discount", "To=Cityand Airline=Discount",
      "To=City\tand\nAirline=Discount", "To=City\vAnD\fAirline=Discount",
      "To=City aNd and Airline=Discount", "To=City&and&From=To",
      "To=City\xE2\x88\xA7" "and From=To",
      "To=City and\xE2\x88\xA7 From=To",
      "To\xE2\x89\x88" "City\xE2\x89\x88" "From",
      "To\xE2\x89\x88",
      "\xE2\x89\x88",
      "To=City \xE2\x88",
      "To=City \xE2\x88\xA7",
      "To\xE2\x89=City",
      "To\xE2\xE2\x89\x88" "City",
      "=", "==", "To==City", "=To", "To=", " = ", "To = = City",
      "To City && From=To", "From=To && To City", "Nowhere=To && To City",
      "To=Nowhere && From", "to=city", "To=To", "From=From && To=To",
      "From=To && To=Airline && Airline=City && City=Discount",
      "Discount=From and City=To AND Airline=To",
  };
  return texts;
}

TEST(GoalParseParityTest, JoinPredicateTestTexts) {
  for (const std::string& text : JoinPredicateTestTexts()) {
    ExpectSameParse(TravelSchema(), text);
    ExpectSameParse(QualifiedSchema(), text);
  }
}

TEST(GoalParseParityTest, EdgeTexts) {
  for (const std::string& text : EdgeTexts()) {
    ExpectSameParse(TravelSchema(), text);
    ExpectSameParse(QualifiedSchema(), text);
  }
}

TEST(GoalParseParityTest, QualifiedAndAmbiguousNames) {
  for (const char* text :
       {"Flights.To=Hotels.City", "To=Hotels.City", "To=City",
        "City=Flights.City", "Flights.City=Hotels.City && And=Airline",
        "And=Airline and Airline=Discount", "And=And", "Hotels.Discount=From",
        "Hotels.From=To", "Flights.=To", ".To=From", "Flights.To.=From"}) {
    ExpectSameParse(QualifiedSchema(), text);
  }
}

/// A random goal text over `names`, mixing every separator and equality
/// spelling, whitespace, and empty or malformed conjuncts.
std::string RandomGoal(util::Rng& rng, const std::vector<std::string>& names) {
  static const char* const kSeparators[] = {
      "&&", "&", " && ", " & ", " and ", " AND ", " And ", " aNd ",
      "\xE2\x88\xA7", " \xE2\x88\xA7 ", "\tand\n", "and", " && && ", ";"};
  static const char* const kEquals[] = {"=", " = ", "\xE2\x89\x88",
                                        " \xE2\x89\x88 ", "==", "", "= ="};
  static const char* const kSpace[] = {"", "", " ", "\t", "\r\n", "\v\f"};
  std::string text;
  const int64_t conjuncts = rng.UniformInt(0, 4);
  for (int64_t c = 0; c < conjuncts; ++c) {
    if (c > 0) text += kSeparators[rng.UniformInt(0, 13)];
    text += kSpace[rng.UniformInt(0, 5)];
    if (rng.UniformInt(0, 9) == 0) continue;  // an empty conjunct
    text += names[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
    text += rng.UniformInt(0, 7) == 0 ? kEquals[rng.UniformInt(4, 6)]
                                      : kEquals[rng.UniformInt(0, 3)];
    text += names[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
    text += kSpace[rng.UniformInt(0, 5)];
  }
  return text;
}

/// Replaces, inserts or deletes a few bytes, drawing from the bytes that
/// steer the parser (including the lead and tail bytes of "∧" and "≈").
std::string Mutate(std::string text, util::Rng& rng) {
  static const char kBytes[] = "&=aAnNdD .\t\xE2\x88\xA7\x89";
  const int64_t edits = rng.UniformInt(1, 3);
  for (int64_t e = 0; e < edits; ++e) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size())));
    const char byte = kBytes[rng.UniformInt(0, sizeof(kBytes) - 2)];
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (at < text.size()) text[at] = byte;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
        break;
    }
  }
  return text;
}

TEST(GoalParseParityTest, SeededGoals) {
  const rel::Schema travel = TravelSchema();
  const rel::Schema qualified = QualifiedSchema();
  const std::vector<std::string> travel_names = {
      "From", "To", "Airline", "City", "Discount", "Nowhere", "and", "to"};
  const std::vector<std::string> qualified_names = {
      "Flights.From", "To",     "Flights.To", "City",    "Flights.City",
      "Hotels.City",  "And",    "Airline",    "Discount", "Hotels.Discount",
      "Hotels.To",    "Nowhere"};
  util::Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    ExpectSameParse(travel, RandomGoal(rng, travel_names));
    ExpectSameParse(qualified, RandomGoal(rng, qualified_names));
  }
}

TEST(GoalParseParityTest, SeededMutations) {
  const rel::Schema qualified = QualifiedSchema();
  const std::vector<std::string> names = {"Flights.To", "Hotels.City",
                                          "And", "Airline", "City", "From"};
  std::vector<std::string> bases = JoinPredicateTestTexts();
  bases.insert(bases.end(), EdgeTexts().begin(), EdgeTexts().end());
  util::Rng rng(37);
  for (int i = 0; i < 300; ++i) bases.push_back(RandomGoal(rng, names));
  for (const std::string& base : bases) {
    for (int m = 0; m < 10; ++m) {
      const std::string mutated = Mutate(base, rng);
      ExpectSameParse(TravelSchema(), mutated);
      ExpectSameParse(qualified, mutated);
    }
  }
}

}  // namespace
}  // namespace jim::core
