// The dependency-free JSON parser behind tools/lgg_inspect: the RFC 8259
// number grammar, the nesting cap, and agreement with obs::JsonWriter on
// every double the emitter can write.
#include "mini_json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/json.hpp"

namespace {

double parse_number(const std::string& text) {
  const minijson::ValuePtr v = minijson::Parser(text).parse();
  EXPECT_EQ(v->kind, minijson::Value::Kind::kNumber) << text;
  return v->number;
}

TEST(MiniJson, AcceptsRfc8259Numbers) {
  EXPECT_EQ(parse_number("0"), 0.0);
  EXPECT_EQ(parse_number("-0"), 0.0);
  EXPECT_EQ(parse_number("17"), 17.0);
  EXPECT_EQ(parse_number("-2.5"), -2.5);
  EXPECT_EQ(parse_number("0.125"), 0.125);
  EXPECT_EQ(parse_number("1e3"), 1000.0);
  EXPECT_EQ(parse_number("1E+3"), 1000.0);
  EXPECT_EQ(parse_number("25e-1"), 2.5);
  EXPECT_EQ(parse_number("9007199254740992"), 9007199254740992.0);
}

TEST(MiniJson, RejectsLenientAndNonFiniteNumbers) {
  for (const char* text :
       {"+1", "01", "01.", "-01", "1.", ".5", "-.5", "1e", "1e+", "-",
        "1.e3", "0x10", "1e999", "-1e999", "Infinity", "NaN"}) {
    EXPECT_THROW((void)minijson::Parser(text).parse(), std::runtime_error)
        << text;
  }
  EXPECT_THROW((void)minijson::Parser(R"({"P":1e999})").parse(),
               std::runtime_error);
}

TEST(MiniJson, CapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)minijson::Parser(nested(minijson::kMaxDepth)).parse());
  EXPECT_THROW(
      (void)minijson::Parser(nested(minijson::kMaxDepth + 1)).parse(),
      std::runtime_error);
  // Far past the cap: a parse error, not a stack overflow.
  EXPECT_THROW((void)minijson::Parser(std::string(200000, '[')).parse(),
               std::runtime_error);
  // Siblings do not add depth.
  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) wide += i == 0 ? "{\"a\":[]}" : ",{\"a\":[]}";
  wide += "]";
  EXPECT_NO_THROW((void)minijson::Parser(wide).parse());
}

TEST(MiniJson, ReadsEveryDoubleTheEmitterWrites) {
  for (const double x :
       {0.0, -0.0, 1.0, -1.5, 0.1, 1e21, 1e-7, 123456789.125,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min()}) {
    std::string text;
    lgg::obs::append_json_double(text, x);
    EXPECT_EQ(parse_number(text), x) << text;
  }
  // Non-finite values are written as null, never as a number token.
  std::string text;
  lgg::obs::append_json_double(text, std::numeric_limits<double>::infinity());
  EXPECT_EQ(minijson::Parser(text).parse()->kind,
            minijson::Value::Kind::kNull);
}

}  // namespace
