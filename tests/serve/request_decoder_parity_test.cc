// serve::ParseRequest (one pass over util::JsonLexer, straight into the
// Request) against the tree-based reference decoder in naive_protocol.h.
// For every line both must agree on acceptance, on every decoded field, and
// on a rejection's code and exact message (JSON errors name a byte offset,
// so the two must also stop at the same byte). The corpus is every line of
// protocol_test plus seeded lines built to hit the decoder's edges:
// duplicate keys of either type, nested unknown members, \u escapes and
// surrogate pairs, -0 / 1e3 / 1.0 / past-int64 numbers, trailing bytes, and
// byte-level mutations of all of them.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "naive_protocol.h"

namespace jim::serve {
namespace {

/// Everything a decode produced, as one comparable string.
std::string Describe(const util::StatusOr<Request>& parsed) {
  if (!parsed.ok()) return "error " + parsed.status().ToString();
  const Request& r = *parsed;
  return util::StrFormat(
      "ok verb=[%s] session=[%s] instance=[%s] strategy=%s[%s] goal=[%s] "
      "seed=%llu max_steps=%llu class=%d/%llu answer=%d/%d",
      r.verb.c_str(), r.session.c_str(), r.instance.c_str(),
      r.strategy.has_value() ? "set" : "unset",
      r.strategy.value_or("").c_str(), r.goal.c_str(),
      static_cast<unsigned long long>(r.seed),
      static_cast<unsigned long long>(r.max_steps), r.has_class_id ? 1 : 0,
      static_cast<unsigned long long>(r.class_id), r.has_answer ? 1 : 0,
      r.answer ? 1 : 0);
}

/// Describe() stops at an embedded NUL (it formats through c_str()), so the
/// string fields are also compared whole. Returns whether the line decoded.
bool ExpectSameDecode(const std::string& line) {
  const auto fast = ParseRequest(line);
  const auto naive = NaiveParseRequest(line);
  EXPECT_EQ(Describe(fast), Describe(naive)) << "line: " << line;
  if (fast.ok() && naive.ok()) {
    EXPECT_EQ(fast->verb, naive->verb) << line;
    EXPECT_EQ(fast->session, naive->session) << line;
    EXPECT_EQ(fast->instance, naive->instance) << line;
    EXPECT_EQ(fast->strategy, naive->strategy) << line;
    EXPECT_EQ(fast->goal, naive->goal) << line;
  }
  return fast.ok();
}

/// Every line protocol_test decodes or rejects.
const std::vector<std::string>& ProtocolTestLines() {
  static const std::vector<std::string> lines = {
      R"({"verb":"create","instance":"f.jimc","strategy":"random",)"
      R"("goal":"To=City","seed":9,"max_steps":50})",
      R"({"verb":"create"})",
      R"({"verb":"label","session":"s1","class":3,"answer":false})",
      "",
      "not json",
      "[1,2]",
      "42",
      R"({"session":"s1"})",
      R"({"verb":7})",
      R"({"verb":"label","class":"three"})",
      R"({"verb":"label","answer":"yes"})",
      R"({"verb":"create","seed":-1})",
      R"({"verb":"create","instance":"path/with \"quotes\".jimc",)"
      R"("strategy":"lookahead-minmax","goal":"To=City && Airline=Discount",)"
      R"("seed":123,"max_steps":7})",
  };
  return lines;
}

/// Lines aimed at one decoder rule each.
const std::vector<std::string>& EdgeLines() {
  static const std::vector<std::string> lines = {
      // Duplicate keys: the last wins, and its type is the one checked.
      R"({"verb":"a","verb":"b"})",
      R"({"verb":"a","verb":""})",
      R"({"verb":1,"verb":"ok"})",
      R"({"verb":"ok","verb":1})",
      R"({"verb":"create","seed":"x","seed":5})",
      R"({"verb":"create","seed":5,"seed":"x"})",
      R"({"verb":"create","strategy":7,"strategy":"random"})",
      R"({"verb":"create","strategy":"random","strategy":null})",
      R"({"verb":"label","answer":1,"answer":true})",
      R"({"verb":"label","class":1,"class":2,"class":-3})",
      // Wrong types in several members: the first in member order reports.
      R"({"answer":1,"class":"x","verb":"v","session":3})",
      R"({"goal":{},"seed":[],"verb":"v"})",
      R"({"max_steps":true,"instance":false,"verb":"v"})",
      // Nested unknown members are read and validated.
      R"({"verb":"ping","extra":{"a":[1,2,{"b":null}],"c":"d"}})",
      R"({"verb":"ping","extra":{"a":[1,2,{"b":nul}]}})",
      R"({"verb":"ping","extra":[1,2,]})",
      R"({"verb":"ping","extra":{"a":1,}})",
      R"({"verb":"ping","extra":{"a" 1}})",
      R"({"verb":"ping","extra":"\q"})",
      // \u escapes, surrogate pairs, and their failures.
      R"({"verb":"create","goal":"To\u003dCity"})",
      R"({"verb":"ping","session":"\ud83d\ude00"})",
      R"({"verb":"ping","session":"\uD83D\uDE00 and \u00e9"})",
      R"({"verb":"ping","session":"😀"})",
      R"({"verb":"ping","session":"\ud83d"})",
      R"({"verb":"ping","session":"\ud83dx"})",
      R"({"verb":"ping","session":"\ud83dA"})",
      R"({"verb":"ping","session":"\ude00"})",
      R"({"verb":"ping","session":"\u12"})",
      R"({"verb":"ping","session":"\u12g4"})",
      R"({"verb":"ping","session":"a\"b\\c\/d\b\f\n\r\t"})",
      R"({"verb":"ping"})",
      R"({"verb\u0000":"ping"})",
      "{\"verb\":\"a\tb\"}",
      "{\"verb\":\"a\x01\"}",
      "{\"verb\":\"caf\xC3\xA9\"}",
      // Numbers.
      R"({"verb":"create","seed":-0})",
      R"({"verb":"create","seed":1e3})",
      R"({"verb":"create","seed":1.0})",
      R"({"verb":"create","seed":1E+2})",
      R"({"verb":"create","seed":9223372036854775807})",
      R"({"verb":"create","seed":9223372036854775808})",
      R"({"verb":"create","seed":-9223372036854775809})",
      R"({"verb":"create","seed":1e999})",
      R"({"verb":"create","seed":1e-999})",
      R"({"verb":"create","seed":01})",
      R"({"verb":"create","seed":-})",
      R"({"verb":"create","seed":1.})",
      R"({"verb":"create","seed":1e})",
      R"({"verb":"create","seed":+1})",
      R"({"verb":"create","max_steps":0,"class":0})",
      R"({"verb":"x","extra":-0.5e-3})",
      // Literals.
      R"({"verb":"label","answer":tru})",
      R"({"verb":"label","answer":nulL})",
      R"({"verb":"label","answer":false,"session":null})",
      // Structure, whitespace, and trailing bytes.
      " \t\r\n{ \"verb\" : \"ping\" } \n",
      R"({"verb":"ping"} x)",
      R"({"verb":"ping"}})",
      R"({"verb":"ping"},)",
      R"({"verb":"ping")",
      R"({"verb":"ping",})",
      R"({"verb" "ping"})",
      R"({verb:"ping"})",
      R"({"verb":})",
      R"({"verb":)",
      R"({"verb)",
      R"({)",
      R"({})",
      R"("just a string")",
      R"(null)",
      R"([1,2)",
      "{\"verb\":\"ping\"}\f",
  };
  return lines;
}

TEST(RequestDecoderParityTest, ProtocolTestLines) {
  for (const std::string& line : ProtocolTestLines()) ExpectSameDecode(line);
}

TEST(RequestDecoderParityTest, EdgeLines) {
  for (const std::string& line : EdgeLines()) ExpectSameDecode(line);
}

TEST(RequestDecoderParityTest, NestingAroundTheDepthLimit) {
  for (size_t levels = 60; levels <= 68; ++levels) {
    const std::string nested =
        std::string(levels, '[') + std::string(levels, ']');
    ExpectSameDecode(R"({"verb":"ping","x":)" + nested + "}");
    ExpectSameDecode(nested);
  }
}

/// A random JSON value; `depth` bounds the nesting.
std::string RandomValue(util::Rng& rng, int depth) {
  static const char* const kScalars[] = {
      "0",         "-0",        "7",          "-3",
      "1e3",       "1.0",       "2.5E-1",     "18446744073709551616",
      "true",      "false",     "null",       R"("")",
      R"("s1")",   R"("random")", R"("To=City")", R"("é😀")",
      R"("a\"b")", R"("\n\t")"};
  const int64_t pick = rng.UniformInt(0, depth > 0 ? 19 : 17);
  if (pick < 18) return kScalars[pick];
  std::string out = pick == 18 ? "[" : "{";
  const int64_t n = rng.UniformInt(0, 3);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out += ",";
    if (pick == 19) out += "\"k" + std::to_string(i) + "\":";
    out += RandomValue(rng, depth - 1);
  }
  out += pick == 18 ? "]" : "}";
  return out;
}

/// A request-shaped object: known members (often repeated, sometimes of the
/// wrong type) and unknown ones, in random order. Most lines carry a verb
/// and well-typed members, so most decode and their fields get compared.
std::string RandomRequest(util::Rng& rng) {
  static const char* const kKeys[] = {
      "verb", "session", "instance", "strategy", "goal", "seed",
      "max_steps", "class", "answer", "extra", "Verb", "ver\\u0062"};
  static const char* const kStrings[] = {
      R"("create")", R"("label")", R"("s12")", R"("")", R"("random")",
      R"("To=City \u0026\u0026 From=To")", R"("\ud83d\ude00")"};
  static const char* const kUints[] = {"0", "-0", "7", "4096",
                                       "9223372036854775807"};
  std::string out = "{";
  int64_t members = rng.UniformInt(0, 7);
  if (rng.UniformInt(0, 3) != 0) {
    out += R"("verb":)" + std::string(kStrings[rng.UniformInt(0, 2)]);
    if (members > 0) out += ",";
  }
  for (int64_t i = 0; i < members; ++i) {
    if (i > 0) out += rng.UniformInt(0, 1) == 0 ? "," : " , ";
    const int64_t key = rng.UniformInt(0, 11);
    out += "\"" + std::string(kKeys[key]) + "\":";
    if (rng.UniformInt(0, 4) == 0 || key > 8) {
      out += RandomValue(rng, 2);
    } else if (key <= 4) {
      out += kStrings[rng.UniformInt(0, 6)];
    } else if (key <= 7) {
      out += kUints[rng.UniformInt(0, 4)];
    } else {
      out += rng.UniformInt(0, 1) == 0 ? "true" : "false";
    }
  }
  out += "}";
  return out;
}

/// Replaces, inserts or deletes a few bytes, drawing from the bytes that
/// steer a JSON scanner.
std::string Mutate(std::string line, util::Rng& rng) {
  static const char kBytes[] = "{}[]\":,\\u0123456789eE.+-tfn \t\n\x01\xC3";
  const int64_t edits = rng.UniformInt(1, 3);
  for (int64_t e = 0; e < edits; ++e) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(line.size())));
    const char byte = kBytes[rng.UniformInt(0, sizeof(kBytes) - 2)];
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (at < line.size()) line[at] = byte;
        break;
      case 1:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        if (at < line.size()) line.erase(at, 1);
        break;
    }
  }
  return line;
}

TEST(RequestDecoderParityTest, SeededRequests) {
  util::Rng rng(23);
  int decoded = 0;
  for (int i = 0; i < 4000; ++i) decoded += ExpectSameDecode(RandomRequest(rng));
  // Both verdicts must be well represented, or the fields go unchecked.
  EXPECT_GT(decoded, 1000);
  EXPECT_LT(decoded, 3000);
}

TEST(RequestDecoderParityTest, SeededMutations) {
  util::Rng rng(29);
  std::vector<std::string> bases = ProtocolTestLines();
  bases.insert(bases.end(), EdgeLines().begin(), EdgeLines().end());
  for (int i = 0; i < 400; ++i) bases.push_back(RandomRequest(rng));
  for (const std::string& base : bases) {
    for (int m = 0; m < 12; ++m) ExpectSameDecode(Mutate(base, rng));
  }
}

TEST(RequestDecoderParityTest, EveryPrefixOfALine) {
  const std::string line =
      R"({"verb":"label","session":"sé","class":12,"answer":true,)"
      R"("x":[1.5e2,{"y":null}]})";
  for (size_t n = 0; n <= line.size(); ++n) {
    ExpectSameDecode(line.substr(0, n));
  }
}

}  // namespace
}  // namespace jim::serve
