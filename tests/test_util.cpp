#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace maxev {
namespace {

using namespace maxev::literals;

TEST(DurationTest, UnitConstructors) {
  EXPECT_EQ(Duration::ps(1).count(), 1);
  EXPECT_EQ(Duration::ns(1).count(), 1'000);
  EXPECT_EQ(Duration::us(1).count(), 1'000'000);
  EXPECT_EQ(Duration::ms(1).count(), 1'000'000'000);
  EXPECT_EQ(Duration::sec(1).count(), 1'000'000'000'000);
}

TEST(DurationTest, Literals) {
  EXPECT_EQ((5_us).count(), 5'000'000);
  EXPECT_EQ((3_ns).count(), 3'000);
  EXPECT_EQ((7_ps).count(), 7);
  EXPECT_EQ((2_ms).count(), 2'000'000'000);
}

TEST(DurationTest, Arithmetic) {
  EXPECT_EQ((2_us + 3_us).count(), (5_us).count());
  EXPECT_EQ((5_us - 3_us).count(), (2_us).count());
  EXPECT_EQ((2_us * 3).count(), (6_us).count());
  Duration d = 1_us;
  d += 1_us;
  EXPECT_EQ(d, 2_us);
}

TEST(DurationTest, Comparison) {
  EXPECT_LT(1_us, 2_us);
  EXPECT_GT(1_ms, 999_us);
  EXPECT_EQ(1000_ns, 1_us);
}

TEST(DurationTest, FromSeconds) {
  EXPECT_EQ(Duration::from_seconds(1e-6), 1_us);
  EXPECT_EQ(Duration::from_seconds(0.5).count(), 500'000'000'000);
}

TEST(DurationTest, ConversionAccessors) {
  EXPECT_DOUBLE_EQ((1_ms).seconds(), 1e-3);
  EXPECT_DOUBLE_EQ((1_us).micros(), 1.0);
  EXPECT_DOUBLE_EQ((1_ns).nanos(), 1.0);
}

TEST(DurationTest, ToStringPicksUnit) {
  EXPECT_EQ((5_us).to_string(), "5us");
  EXPECT_EQ((1500_ns).to_string(), "1.5us");
  EXPECT_EQ(Duration::ps(12).to_string(), "12ps");
  EXPECT_EQ(Duration::sec(2).to_string(), "2s");
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t = TimePoint::origin() + 5_us;
  EXPECT_EQ(t.count(), 5'000'000);
  EXPECT_EQ((t + 1_us).count(), 6'000'000);
  EXPECT_EQ((t - TimePoint::origin()), 5_us);
  EXPECT_LT(TimePoint::origin(), t);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, KnownSplitMix64Stream) {
  // Reference values for SplitMix64 seeded with 1234567.
  Rng r(1234567);
  EXPECT_EQ(r.next_u64(), 6457827717110365317ull);
  EXPECT_EQ(r.next_u64(), 3203168211198807973ull);
}

TEST(RngTest, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_i64(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, Uniform01InRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 200; ++i) seen[r.next_below(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, PickWeightedPrefersHeavy) {
  Rng r(13);
  std::vector<double> w = {0.01, 10.0};
  int heavy = 0;
  for (int i = 0; i < 500; ++i)
    if (r.pick_weighted(w) == 1) ++heavy;
  EXPECT_GT(heavy, 450);
}

TEST(RngTest, SplitGivesIndependentStream) {
  Rng a(5);
  Rng c = a.split();
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(StatsTest, AccumulatorMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(StatsTest, SummarizeMatchesAccumulator) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("x=%d y=%s", 3, "abc"), "x=3 y=abc");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(StringsTest, ParseCount) {
  EXPECT_EQ(parse_count("1"), 1u);
  EXPECT_EQ(parse_count("20000"), 20000u);
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_count(nullptr), std::nullopt);
  EXPECT_EQ(parse_count(""), std::nullopt);
  EXPECT_EQ(parse_count("0"), std::nullopt);       // zero workload
  EXPECT_EQ(parse_count("-3"), std::nullopt);      // no silent wraparound
  EXPECT_EQ(parse_count("+3"), std::nullopt);
  EXPECT_EQ(parse_count("12x"), std::nullopt);     // trailing junk
  EXPECT_EQ(parse_count("--help"), std::nullopt);
  EXPECT_EQ(parse_count("18446744073709551616"), std::nullopt);  // overflow
}

TEST(StringsTest, ConsoleTableAlignsColumns) {
  ConsoleTable t({"a", "long header"});
  t.add_row({"1", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a | long header |"), std::string::npos);
  EXPECT_NE(out.find("| 1 | 2           |"), std::string::npos);
}

TEST(CsvTest, WritesEscapedCells) {
  const std::string path = testing::TempDir() + "/maxev_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"plain", "has,comma"});
    w.row({"has\"quote", "x"});
    w.row_numeric({1.5, 2.0});
    EXPECT_EQ(w.rows_written(), 4u);
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("a,b\n"), std::string::npos);
  EXPECT_NE(all.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(all.find("\"has\"\"quote\",x\n"), std::string::npos);
  EXPECT_NE(all.find("1.5,2\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), Error);
}

// ---------------------------------------------------------------- JSON ----

std::string written(double v) {
  JsonWriter w;
  w.value(v);
  return w.str();
}

std::string printf_17g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double d = 0.0;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

TEST(JsonTest, WrittenDoublesMatchPrintf17g) {
  const double special[] = {0.0,
                            -0.0,
                            3.0,
                            -3.0,
                            1e17,
                            0.1,
                            1.0 / 3.0,
                            DBL_MAX,
                            -DBL_MAX,
                            DBL_MIN,
                            DBL_TRUE_MIN,
                            from_bits(0x000fffffffffffffull),  // largest subnormal
                            9007199254740993.0,
                            123456789012345678.0};
  for (const double v : special) EXPECT_EQ(written(v), printf_17g(v)) << v;
  EXPECT_EQ(written(3.0), "3");
  EXPECT_EQ(written(-0.0), "-0");
  EXPECT_EQ(written(std::nan("")), "null");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "null");

  // A seeded sweep over raw bit patterns: every exponent, both signs,
  // subnormals included.
  Rng rng(2024);
  std::size_t mismatches = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    const double v = from_bits(rng.next_u64());
    const std::string got = written(v);
    const std::string want = std::isfinite(v) ? printf_17g(v) : "null";
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "got " << got << ", want " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonTest, ParsedDoublesMatchStrtod) {
  Rng rng(7);
  std::size_t mismatches = 0;
  auto check = [&](const std::string& text) {
    const std::uint64_t got = bits_of(json_parse(text).as_double());
    const std::uint64_t want = bits_of(std::strtod(text.c_str(), nullptr));
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << text << ": got bits " << got << ", want " << want;
  };
  // Round-trip literals of random finite doubles. "-0" is left out: an
  // integral literal parses as the integer 0.
  for (int i = 0; i < (1 << 18); ++i) {
    const double v = from_bits(rng.next_u64());
    if (std::isfinite(v) && v != 0.0) check(printf_17g(v));
  }
  // Random decimal literals with up to 30 digits: rounding cases the
  // shortest round-trip form never produces, plus exponents past both ends
  // of the range (strtod's overflow and underflow values).
  for (int i = 0; i < (1 << 18); ++i) {
    std::string lit = rng.chance(0.5) ? "-" : "";
    lit += static_cast<char>('1' + rng.next_below(9));
    const int digits = rng.uniform_int(0, 29);
    if (digits > 0) lit += '.';
    for (int d = 0; d < digits; ++d)
      lit += static_cast<char>('0' + rng.next_below(10));
    lit += 'e' + std::to_string(rng.uniform_int(-345, 330));
    check(lit);
  }
  for (const char* lit : {"1e400", "-1e400", "1e-400", "2.4703282292062328e-324",
                          "2.4703282292062327e-324", "4.9406564584124654e-324",
                          "1.7976931348623157e308", "1.7976931348623159e308",
                          "0.1", "1E2", "1e+2", "-0.0", "0.000"})
    check(lit);
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonTest, Int64LiteralsStayExact) {
  const JsonValue lo = json_parse("-9223372036854775808");
  const JsonValue hi = json_parse("9223372036854775807");
  ASSERT_TRUE(lo.is_int64());
  ASSERT_TRUE(hi.is_int64());
  EXPECT_EQ(lo.as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(hi.as_int64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json_dump(lo), "-9223372036854775808");
  EXPECT_EQ(json_dump(hi), "9223372036854775807");

  for (const char* lit : {"9223372036854775808", "-9223372036854775809",
                          "100000000000000000000000"}) {
    const JsonValue v = json_parse(lit);
    EXPECT_TRUE(v.is_number()) << lit;
    EXPECT_FALSE(v.is_int64()) << lit;
    EXPECT_EQ(v.as_double(), std::strtod(lit, nullptr)) << lit;
  }
  EXPECT_TRUE(json_parse("-0").is_int64());

  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::int64_t{0})
      .end_array();
  EXPECT_EQ(w.str(), "[-9223372036854775808,18446744073709551615,0]");
}

TEST(JsonTest, StringsRoundTripEveryEscape) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/ plain \x7f\xc3\xa9";
  // Runs longer than the small-string buffer on either side of escapes.
  const std::string run(40, 'x');
  const std::vector<std::string> cases = {"", "plain", all, run + all + run,
                                          run + "\"" + run, run + "\n"};
  for (const std::string& s : cases) {
    JsonWriter w;
    w.begin_object().field(s, s).end_object();
    const JsonValue v = json_parse(w.str());
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v.members().begin()->first, s);
    EXPECT_EQ(v.at(s).as_string(), s);
  }

  // Exact bytes: \n, \r, \t have short forms; other controls are \u00xx.
  JsonWriter w;
  w.value(std::string("a\x01\b\f\n\r\t\x1f\"\\z"));
  EXPECT_EQ(w.str(), R"("a\u0001\u0008\u000c\n\r\t\u001f\"\\z")");

  EXPECT_EQ(json_parse(R"("Aé€\/\b\f")").as_string(),
            "A\xc3\xa9\xe2\x82\xac/\b\f");
  EXPECT_EQ(json_parse("\"" + run + R"(\u001F)" + run + "\"").as_string(),
            run + "\x1f" + run);
}

TEST(JsonTest, MalformedInputsNameTheOffset) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "unexpected end of input at offset 0"},
      {"  ", "unexpected end of input at offset 2"},
      {"[1,]", "invalid number at offset 3"},
      {"[1 2]", "expected ',' or ']' at offset 3"},
      {R"({"a" 1})", "expected ':' at offset 5"},
      {R"({"a":1 "b":2})", "expected ',' or '}' at offset 7"},
      {R"({"a":1,"a":2})", "duplicate object key at offset 12"},
      {"{1:2}", "expected string at offset 1"},
      {R"("abc)", "unterminated string at offset 4"},
      {"\"a\x01\"", "unescaped control character in string at offset 3"},
      {R"("\)", "unterminated escape at offset 2"},
      {R"("\x")", "invalid escape character at offset 3"},
      {R"("\u12")", "truncated \\u escape at offset 3"},
      {R"("\u12g4")", "invalid \\u escape digit at offset 6"},
      {R"("\ud800")", "surrogate \\u escape unsupported at offset 7"},
      {"tru", "invalid literal at offset 0"},
      {"nul", "invalid literal at offset 0"},
      {"falsey", "trailing characters after document at offset 5"},
      {"1 2", "trailing characters after document at offset 2"},
      {"-", "invalid number at offset 1"},
      {"+1", "invalid number at offset 0"},
      {".5", "invalid number at offset 0"},
      {"1.", "invalid number: digit required after '.' at offset 2"},
      {"1.e5", "invalid number: digit required after '.' at offset 2"},
      {"1e", "invalid number: digit required in exponent at offset 2"},
      {"1e+", "invalid number: digit required in exponent at offset 3"},
  };
  for (const auto& [text, what] : cases) {
    try {
      (void)json_parse(text);
      ADD_FAILURE() << "parsed: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("json_parse: ") + what)
          << text;
    }
  }
}

TEST(JsonTest, RejectsDeepNesting) {
  // At the bound a document parses and dumps back unchanged.
  const std::string at_bound =
      std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
  EXPECT_EQ(json_dump(json_parse(at_bound)), at_bound);

  const std::string want = "json_parse: nesting deeper than " +
                           std::to_string(kJsonMaxDepth) + " at offset ";
  std::string objects;
  for (std::size_t i = 0; i <= kJsonMaxDepth; ++i) objects += R"({"a":)";
  const std::pair<std::string, std::size_t> cases[] = {
      {std::string(kJsonMaxDepth + 1, '['), kJsonMaxDepth},
      {std::string(1 << 20, '['), kJsonMaxDepth},
      {objects, 5 * kJsonMaxDepth},
  };
  for (const auto& [text, offset] : cases) {
    try {
      (void)json_parse(text);
      ADD_FAILURE() << "parsed " << text.size() << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want + std::to_string(offset));
    }
  }
}

TEST(JsonReaderTest, PullsMembersInAnyOrderWithoutATree) {
  JsonReader r(R"( {"b": [1, 2.5, "x\n"], "a": {"t": true, "n": null}} )");
  ASSERT_EQ(r.peek(), JsonValue::Kind::kObject);
  r.begin_object();
  std::string_view key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "b");
  ASSERT_EQ(r.peek(), JsonValue::Kind::kArray);
  r.begin_array();
  ASSERT_TRUE(r.next_item());
  const JsonReader::Number one = r.read_number();
  EXPECT_TRUE(one.exact);
  EXPECT_EQ(one.i, 1);
  ASSERT_TRUE(r.next_item());
  const JsonReader::Number half = r.read_number();
  EXPECT_FALSE(half.exact);
  EXPECT_EQ(half.d, 2.5);
  ASSERT_TRUE(r.next_item());
  EXPECT_EQ(r.read_string(), "x\n");
  EXPECT_FALSE(r.next_item());
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "a");
  r.skip_value();
  EXPECT_FALSE(r.next_key(key));
  r.finish();
}

TEST(JsonReaderTest, RepeatedKeysFailPastTheirValueInWideObjects) {
  // Past 16 members the reader indexes an object's keys instead of
  // scanning them; the verdict and the offset stay the same.
  for (const std::size_t width : {3, 16, 17, 40}) {
    std::string text = "{";
    for (std::size_t i = 0; i < width; ++i)
      text += (i == 0 ? "\"k" : ",\"k") + std::to_string(i) + "\":" +
              std::to_string(i);
    EXPECT_EQ(json_parse(text + "}").size(), width);
    const std::string repeated = text + R"(,"k1":[1])";
    const std::string want = "json_parse: duplicate object key at offset " +
                             std::to_string(repeated.size());
    try {
      (void)json_parse(repeated + "}");
      ADD_FAILURE() << "parsed a repeated key at width " << width;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
    const std::string closed = repeated + "}";
    JsonReader skipped(closed);
    try {
      skipped.skip_value();
      ADD_FAILURE() << "skipped a repeated key at width " << width;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
  // Each object has keys of its own.
  EXPECT_EQ(json_parse(R"({"a":{"a":1,"b":{"a":2}},"b":{"a":3}})").size(), 2u);
}

TEST(JsonWriterTest, Int64ArrayWritesWhatPerValueWritesWrite) {
  const std::vector<std::int64_t> cases[] = {
      {},
      {0},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max(), -1, 7, 1'000'000'000'000}};
  for (const std::vector<std::int64_t>& v : cases) {
    JsonWriter bulk;
    bulk.begin_array().value(true).int64_array(v).int64_array(v).end_array();
    bulk.begin_object();
    JsonWriter each;
    each.begin_array().value(true);
    for (int twice = 0; twice < 2; ++twice) {
      each.begin_array();
      for (const std::int64_t x : v) each.value(x);
      each.end_array();
    }
    each.end_array();
    each.begin_object();
    bulk.key("v").int64_array(v).field("n", std::int64_t{1}).end_object();
    each.key("v").begin_array();
    for (const std::int64_t x : v) each.value(x);
    each.end_array().field("n", std::int64_t{1}).end_object();
    EXPECT_EQ(bulk.str(), each.str());
  }
}

TEST(ErrorTest, HierarchyRoots) {
  EXPECT_THROW(throw DescriptionError("x"), Error);
  EXPECT_THROW(throw OverflowError("x"), Error);
  EXPECT_THROW(throw SimulationError("x"), Error);
}

}  // namespace
}  // namespace maxev
