#include "serve/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace naas::serve {
namespace {

Json parse_ok(const std::string& text) {
  std::string error;
  Json j = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error << " for: " << text;
  return j;
}

std::string parse_err(const std::string& text) {
  std::string error;
  Json::parse(text, &error);
  EXPECT_FALSE(error.empty()) << "expected failure for: " << text;
  return error;
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(parse_ok("null").dump(), "null");
  EXPECT_EQ(parse_ok("true").dump(), "true");
  EXPECT_EQ(parse_ok("false").dump(), "false");
  EXPECT_EQ(parse_ok("42").dump(), "42");
  EXPECT_EQ(parse_ok("-7").dump(), "-7");
  EXPECT_EQ(parse_ok("0.5").dump(), "0.5");
  EXPECT_EQ(parse_ok("\"hi\"").dump(), "\"hi\"");
  EXPECT_EQ(parse_ok("  42  ").dump(), "42");
}

TEST(Json, IntegersStayExact) {
  const Json j = parse_ok("9007199254740993");  // 2^53 + 1
  EXPECT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), 9007199254740993LL);
  EXPECT_EQ(j.dump(), "9007199254740993");
}

TEST(Json, HugeIntegerFallsBackToDouble) {
  const Json j = parse_ok("123456789012345678901234567890");
  EXPECT_TRUE(j.is_number());
  EXPECT_FALSE(j.is_int());
}

TEST(Json, DoubleRoundTripsBitExact) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -1e-300,
                         3463492068843.639, 0.30000000000000004}) {
    const std::string text = format_double(v);
    std::string error;
    const Json j = Json::parse(text, &error);
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(j.as_double(), v) << text;
  }
}

/// Reference formatter in C stdio: the shortest of %.15g, %.16g and %.17g
/// that strtod reads back to the same bits. Every number in every response
/// goes through format_double, so it must produce exactly this text.
std::string printf_reference(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(Json, FormatDoubleMatchesPrintfReference) {
  std::vector<double> values = {0.0, -0.0, DBL_MIN, DBL_MAX, DBL_TRUE_MIN,
                                1e15, 1e16, 1e17, 1e21};
  // Every power of two, subnormals included, and both of its neighbours.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, HUGE_VAL));
  }
  // The decades where %g switches to exponent form and where 15, 16 and 17
  // digits stop sufficing, with their neighbours.
  for (const double d : {1e15, 1e16, 1e17, 1e21}) {
    values.push_back(std::nextafter(d, 0.0));
    values.push_back(std::nextafter(d, HUGE_VAL));
  }
  // Integers above 2^53, where consecutive doubles are 2 or more apart.
  for (std::int64_t i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>((std::int64_t{1} << 53) + 2 * i));
    values.push_back(static_cast<double>((std::int64_t{1} << 60) + 997 * i));
  }
  // The sign only prefixes the text, but check it on every edge anyway.
  const std::size_t edges = values.size();
  for (std::size_t i = 0; i < edges; ++i) values.push_back(-values[i]);
  // Seeded random bit patterns of both signs (non-finite ones read "null"
  // on both sides), then realistic magnitudes: values spread over sixty
  // decades, and short decimals.
  std::mt19937_64 rng(0x6a736f6e);
  for (int i = 0; i < 1000000; ++i) values.push_back(from_bits(rng()));
  std::uniform_real_distribution<double> exponent(-30.0, 30.0);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::pow(10.0, exponent(rng)));
    values.push_back(static_cast<double>(rng() % 1000000) /
                     std::pow(10.0, static_cast<double>(rng() % 12)));
  }

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = format_double(v);
    const std::string want = printf_reference(v);
    if (got == want) continue;
    if (++mismatches <= 10)
      ADD_FAILURE() << "bits 0x" << std::hex << to_bits(v) << ": got "
                    << got << ", want " << want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(Json, NonFiniteDumpsAsNull) {
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
  // And null reads back as NaN, keeping +inf EDP representable in spirit.
  EXPECT_TRUE(std::isnan(parse_ok("null").as_double()));
}

TEST(Json, StringEscapes) {
  const Json j = parse_ok("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(j.as_string(), "a\"b\\c\n\tA\xc3\xa9");
  // Control characters re-escape on dump.
  EXPECT_EQ(Json::string("x\ny").dump(), "\"x\\ny\"");
  EXPECT_EQ(Json::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, SurrogatePairs) {
  const Json j = parse_ok("\"\\ud83d\\ude00\"");  // 😀 U+1F600
  EXPECT_EQ(j.as_string(), "\xf0\x9f\x98\x80");
  parse_err("\"\\ud83d\"");        // unpaired high surrogate
  parse_err("\"\\ude00\"");        // lone low surrogate
}

TEST(Json, NestedStructures) {
  const Json j = parse_ok(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "f"})");
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j.size(), 3u);
  const Json* a = j.get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->at(0).as_int(), 1);
  EXPECT_TRUE(a->at(2).get("b")->as_bool());
  EXPECT_TRUE(j.get("c")->get("d")->is_null());
  EXPECT_EQ(j.get("missing"), nullptr);
  // Out-of-range array access returns the null sentinel, not UB.
  EXPECT_TRUE(a->at(99).is_null());
}

TEST(Json, DumpPreservesInsertionOrder) {
  Json obj = Json::object();
  obj.set("z", Json::integer(1));
  obj.set("a", Json::integer(2));
  obj.set("m", Json::integer(3));
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  obj.set("a", Json::integer(9));  // overwrite keeps position
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, ParseDumpFixpoint) {
  const std::string text =
      "{\"id\":1,\"ok\":true,\"result\":{\"edp\":0.1875,"
      "\"order\":[\"K\",\"C\"],\"n\":null}}";
  EXPECT_EQ(parse_ok(text).dump(), text);
}

TEST(Json, RawSplicesVerbatim) {
  Json obj = Json::object();
  obj.set("result", Json::raw("{\"cached\":true}"));
  EXPECT_EQ(obj.dump(), "{\"result\":{\"cached\":true}}");
}

TEST(Json, MalformedInputsReportErrors) {
  parse_err("");
  parse_err("{");
  parse_err("[1,");
  parse_err("{\"a\":}");
  parse_err("{\"a\" 1}");
  parse_err("\"unterminated");
  parse_err("tru");
  parse_err("01x");
  parse_err("1 2");            // trailing characters
  parse_err("{\"a\":1,}");     // trailing comma
  parse_err("nul");
  parse_err("\"bad\\escape\"");
  parse_err("-");
  // RFC 8259 number grammar: no leading zeros, digits required around
  // '.' and after 'e' (strtod would accept several of these).
  parse_err("01");
  parse_err("-01");
  parse_err("1.");
  parse_err(".5");
  parse_err("-.5");
  parse_err("1e");
  parse_err("1e+");
  parse_ok("0");
  parse_ok("-0.25");
  parse_ok("2e10");
  // Error messages carry a position.
  EXPECT_NE(parse_err("[1, x]").find("offset"), std::string::npos);
}

TEST(Json, DepthLimitRejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  parse_err(deep);
  // At sane depth the same shape parses.
  parse_ok("[[[[[[[[1]]]]]]]]");
}

TEST(Json, WrongTypeAccessorsAreNeutral) {
  const Json j = parse_ok("\"text\"");
  EXPECT_EQ(j.as_int(7), 7);
  EXPECT_FALSE(j.as_bool());
  EXPECT_EQ(j.size(), 0u);
  EXPECT_EQ(Json::integer(5).as_string(), "");
}

}  // namespace
}  // namespace naas::serve
