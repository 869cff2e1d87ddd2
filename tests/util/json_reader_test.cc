// util::ParseJson is the daemon's request parser: every byte a client can
// send flows through it, so it must accept exactly JSON and fail typed on
// everything else — no crash, no silent coercion.

#include "util/json_reader.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "util/json_writer.h"

namespace jim::util {
namespace {

TEST(JsonReaderTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_EQ(ParseJson("42")->AsInt64(), 42);
  EXPECT_EQ(ParseJson("-7")->AsInt64(), -7);
  EXPECT_DOUBLE_EQ(ParseJson("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonReaderTest, IntegerAndDoubleViewsAgree) {
  JsonValue v = ParseJson("42").value();
  EXPECT_TRUE(v.is_int());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 42.0);
  JsonValue d = ParseJson("42.5").value();
  EXPECT_FALSE(d.is_int());
}

TEST(JsonReaderTest, ParsesNestedContainers) {
  auto parsed = ParseJson(
      R"({"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[0].AsInt64(), 1);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(root.Find("d")->Find("e")->is_null());
  EXPECT_TRUE(root.GetBool("f", false));
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonReaderTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")")->AsString(),
            "a\"b\\c/d\n\t\r\b\f");
  // \uXXXX including a surrogate pair (𝄞 = U+1D11E).
  EXPECT_EQ(ParseJson(R"("\u0041\u00e9\u20ac")")->AsString(),
            "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(ParseJson(R"("\ud834\udd1e")")->AsString(),
            "\xF0\x9D\x84\x9E");
}

TEST(JsonReaderTest, GetHelpersFallBack) {
  JsonValue v = ParseJson(R"({"s":"x","n":3,"b":true})").value();
  EXPECT_EQ(v.GetString("s", "d"), "x");
  EXPECT_EQ(v.GetString("missing", "d"), "d");
  EXPECT_EQ(v.GetInt("n", 9), 3);
  EXPECT_EQ(v.GetInt("missing", 9), 9);
  EXPECT_TRUE(v.GetBool("b", false));
  // Wrong kind falls back rather than aborting.
  EXPECT_EQ(v.GetInt("s", 9), 9);
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "   ", "{", "[1,", "tru", "01", "1.", "+1", "\"unterminated",
        "\"bad\\q\"", "{\"a\"}", "{\"a\":1,}", "[1 2]", "nullx", "1 2",
        "{\"a\":}", "\"\\ud834\"", "\"\x01\""}) {
    auto parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

// The lexer's edges that ParseJson and serve::ParseRequest share (their
// parity tests cannot see a lexer fault, since both would make it).
TEST(JsonReaderTest, LexerEdges) {
  // Integral tokens are ints exactly while they fit int64.
  EXPECT_EQ(ParseJson("9223372036854775807")->AsInt64(), INT64_MAX);
  EXPECT_EQ(ParseJson("-9223372036854775808")->AsInt64(), INT64_MIN);
  EXPECT_EQ(ParseJson("-0")->AsInt64(), 0);
  const JsonValue past = ParseJson("9223372036854775808").value();
  EXPECT_FALSE(past.is_int());
  EXPECT_DOUBLE_EQ(past.AsDouble(), 9223372036854775808.0);
  EXPECT_FALSE(ParseJson("-9223372036854775809")->is_int());
  EXPECT_FALSE(ParseJson("1.0")->is_int());
  // A high surrogate must pair with a low one, U+DC00..U+DFFF.
  EXPECT_EQ(ParseJson(R"("\udbff\udfff")")->AsString(), "\xF4\x8F\xBF\xBF");
  for (const char* bad : {R"("\ud834")", R"("\ud834\udbff")",
                          R"("\ud834\ue000")", R"("\udd1e")",
                          R"("\ud834x")"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
  // Errors name what went wrong and the byte offset; both reach clients
  // verbatim in error lines.
  EXPECT_EQ(ParseJson("[1,]").status().message(),
            "json: invalid number at offset 3");
  EXPECT_EQ(ParseJson("1e999").status().message(),
            "json: number out of range at offset 5");
  EXPECT_EQ(ParseJson(R"({"a":1} x)").status().message(),
            "json: trailing characters after JSON value at offset 8");
  EXPECT_EQ(ParseJson(R"("\ud834")").status().message(),
            "json: unpaired surrogate at offset 7");
  EXPECT_EQ(ParseJson(R"("\ud834\ue000")").status().message(),
            "json: invalid low surrogate at offset 13");
}

TEST(JsonReaderTest, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  auto parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KeyValue("ok", true);
  writer.KeyValue("n", int64_t{-12});
  writer.KeyValue("s", "a \"quoted\" value\nline two");
  writer.Key("list");
  writer.BeginArray();
  writer.Value(int64_t{1});
  writer.Value("two");
  writer.EndArray();
  writer.EndObject();
  auto parsed = ParseJson(writer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->GetBool("ok", false));
  EXPECT_EQ(parsed->GetInt("n", 0), -12);
  EXPECT_EQ(parsed->GetString("s", ""), "a \"quoted\" value\nline two");
  EXPECT_EQ(parsed->Find("list")->AsArray()[1].AsString(), "two");
}

}  // namespace
}  // namespace jim::util
