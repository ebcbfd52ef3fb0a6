// The serving layer's wire format: strict parsing (malformed input
// throws, never guesses), typed accessors that fail loudly on kind
// mismatches, and deterministic insertion-order dumps — the properties
// the line-JSON protocol relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "io/json.hpp"
#include "util/error.hpp"

namespace rumor::io {
namespace {

TEST(IoJson, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(IoJson, ParsesNestedContainers) {
  const JsonValue doc = JsonValue::parse(
      R"({"op":"submit","spec":{"graph":"g.csr","t_end":12.5},)"
      R"("tags":[1,2,3],"deep":[{"k":[true,null]}]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("op")->as_string(), "submit");
  const JsonValue* spec = doc.find("spec");
  ASSERT_NE(spec, nullptr);
  EXPECT_DOUBLE_EQ(spec->number_or("t_end", 0.0), 12.5);
  const JsonValue::Array& tags = doc.find("tags")->as_array();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_DOUBLE_EQ(tags[1].as_number(), 2.0);
  const JsonValue& inner = doc.find("deep")->as_array()[0];
  EXPECT_TRUE(inner.find("k")->as_array()[0].as_bool());
  EXPECT_TRUE(inner.find("k")->as_array()[1].is_null());
}

TEST(IoJson, ParsesStringEscapes) {
  const JsonValue doc =
      JsonValue::parse(R"("line\nbreak \"quoted\" back\\slash tab\t")");
  EXPECT_EQ(doc.as_string(), "line\nbreak \"quoted\" back\\slash tab\t");
}

TEST(IoJson, AllowsSurroundingWhitespace) {
  const JsonValue doc = JsonValue::parse("  \t {\"a\": 1} \r\n ");
  EXPECT_DOUBLE_EQ(doc.number_or("a", 0.0), 1.0);
}

TEST(IoJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), util::IoError);
  EXPECT_THROW(JsonValue::parse("{"), util::IoError);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), util::IoError);
  EXPECT_THROW(JsonValue::parse("[1,2,]"), util::IoError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), util::IoError);
  EXPECT_THROW(JsonValue::parse("tru"), util::IoError);
  EXPECT_THROW(JsonValue::parse("nan"), util::IoError);
}

TEST(IoJson, RejectsTrailingGarbage) {
  EXPECT_THROW(JsonValue::parse("{} extra"), util::IoError);
  EXPECT_THROW(JsonValue::parse("1 2"), util::IoError);
}

TEST(IoJson, TypedAccessorsThrowOnKindMismatch) {
  const JsonValue number = JsonValue::parse("7");
  EXPECT_THROW(number.as_string(), util::IoError);
  EXPECT_THROW(number.as_object(), util::IoError);
  EXPECT_THROW(number.as_array(), util::IoError);
  EXPECT_THROW(JsonValue::parse("\"x\"").as_number(), util::IoError);
  EXPECT_THROW(JsonValue::parse("null").as_bool(), util::IoError);
}

TEST(IoJson, FindReturnsNullForAbsentOrNonObject) {
  const JsonValue doc = JsonValue::parse("{\"a\":1}");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(JsonValue::parse("[1]").find("a"), nullptr);
}

TEST(IoJson, FallbackAccessorsDistinguishAbsentFromMistyped) {
  const JsonValue doc =
      JsonValue::parse(R"({"n":3,"s":"text","b":true,"u":12})");
  // Absent keys take the fallback.
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 9.5), 9.5);
  EXPECT_EQ(doc.string_or("missing", "dflt"), "dflt");
  EXPECT_TRUE(doc.bool_or("missing", true));
  EXPECT_EQ(doc.u64_or("missing", 77u), 77u);
  // Present keys are read.
  EXPECT_DOUBLE_EQ(doc.number_or("n", 0.0), 3.0);
  EXPECT_EQ(doc.string_or("s", ""), "text");
  EXPECT_TRUE(doc.bool_or("b", false));
  EXPECT_EQ(doc.u64_or("u", 0u), 12u);
  // Present-but-wrong-kind fails loudly rather than defaulting.
  EXPECT_THROW(doc.number_or("s", 0.0), util::IoError);
  EXPECT_THROW(doc.string_or("n", ""), util::IoError);
  EXPECT_THROW(doc.bool_or("n", false), util::IoError);
  EXPECT_THROW(doc.u64_or("s", 0u), util::IoError);
}

// 2^64 and above do not fit a u64 (the cast would be undefined
// behaviour), so they are rejected like negatives and fractions.
TEST(IoJson, U64RejectsValuesOutsideItsRange) {
  const JsonValue doc = JsonValue::parse(
      R"({"top":18446744073709549568,"pow64":18446744073709551616,)"
      R"("huge":1e300,"neg":-1,"frac":2.5})");
  EXPECT_EQ(doc.u64_or("top", 0u), 18446744073709549568ull);  // 2^64 − 2^11
  for (const char* key : {"pow64", "huge", "neg", "frac"}) {
    EXPECT_THROW(doc.u64_or(key, 0u), util::IoError) << key;
  }
}

TEST(IoJson, SetInsertsAndReplaces) {
  JsonValue doc = JsonValue::make_object();
  doc.set("a", 1);
  doc.set("b", "two");
  doc.set("a", 3);  // replace keeps the original position
  EXPECT_EQ(doc.dump(), "{\"a\":3,\"b\":\"two\"}");
}

TEST(IoJson, DumpIsDeterministicInsertionOrder) {
  JsonValue doc = JsonValue::make_object();
  doc.set("z", 1);
  doc.set("a", JsonValue::make_array());
  doc.set("m", true);
  JsonValue arr = JsonValue::make_array();
  arr.push_back(1.5);
  arr.push_back("x");
  arr.push_back(JsonValue());
  doc.set("a", std::move(arr));
  EXPECT_EQ(doc.dump(), "{\"z\":1,\"a\":[1.5,\"x\",null],\"m\":true}");
}

TEST(IoJson, DumpEscapesControlCharactersAndQuotes) {
  JsonValue doc("a\"b\\c\nd");
  const std::string text = doc.dump();
  EXPECT_EQ(JsonValue::parse(text).as_string(), "a\"b\\c\nd");
}

TEST(IoJson, NumbersRoundTripExactly) {
  const double values[] = {0.0,  1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                           -2.5, 123456789.123456789};
  for (const double v : values) {
    const std::string text = JsonValue(v).dump();
    EXPECT_EQ(JsonValue::parse(text).as_number(), v) << text;
  }
}

TEST(IoJson, RoundTripsProtocolShapedDocument) {
  const std::string wire =
      R"({"ok":true,"job":{"id":7,"state":"done",)"
      R"("result":{"objective":1.25,"crc":365788665}}})";
  const JsonValue doc = JsonValue::parse(wire);
  // dump/parse/dump is a fixed point: deterministic wire format.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
}

}  // namespace
}  // namespace rumor::io
