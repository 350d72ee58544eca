// Tests for the textual schema specification parser used by the dqaudit
// command-line tool.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "mutate.h"
#include "table/date.h"
#include "table/schema_spec.h"

namespace dq {
namespace {

TEST(SchemaSpecTest, ParsesAllTypes) {
  std::istringstream in(
      "# engine composition\n"
      "BRV nominal 401,404,501\n"
      "DISPLACEMENT numeric 2000 16000\n"
      "\n"
      "PROD_DATE date 1990-01-01 2003-06-30\n");
  auto schema = ParseSchemaSpec(&in);
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema->num_attributes(), 3u);
  EXPECT_EQ(schema->attribute(0).type, DataType::kNominal);
  EXPECT_EQ(schema->attribute(0).categories.size(), 3u);
  EXPECT_EQ(schema->attribute(1).type, DataType::kNumeric);
  EXPECT_DOUBLE_EQ(schema->attribute(1).numeric_max, 16000.0);
  EXPECT_EQ(schema->attribute(2).type, DataType::kDate);
  EXPECT_EQ(schema->attribute(2).date_min, DaysFromCivil({1990, 1, 1}));
}

TEST(SchemaSpecTest, RejectsMalformedLines) {
  {
    std::istringstream in("X unknown 1 2\n");
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
  {
    std::istringstream in("X numeric 5\n");  // missing max
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
  {
    std::istringstream in("X date 1990-01-01 not-a-date\n");
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
  {
    std::istringstream in("X numeric 5 1\n");  // empty range
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
  {
    std::istringstream in("X nominal a,a\n");  // duplicate category
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
  {
    std::istringstream in("# only comments\n");
    EXPECT_FALSE(ParseSchemaSpec(&in).ok());
  }
}

TEST(SchemaSpecTest, ErrorsMentionLineNumbers) {
  std::istringstream in("A nominal x,y\nB bogus\n");
  auto schema = ParseSchemaSpec(&in);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("line 2"), std::string::npos);
}

TEST(SchemaSpecTest, FormatParseRoundTrip) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("color", {"red", "green"}).ok());
  ASSERT_TRUE(s.AddNumeric("weight", 0.5, 99.5).ok());
  ASSERT_TRUE(s.AddDate("built", DaysFromCivil({2000, 1, 1}),
                        DaysFromCivil({2010, 12, 31}))
                  .ok());
  const std::string spec = FormatSchemaSpec(s);
  std::istringstream in(spec);
  auto back = ParseSchemaSpec(&in);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_attributes(), 3u);
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(back->attribute(a).name, s.attribute(a).name);
    EXPECT_EQ(back->attribute(a).type, s.attribute(a).type);
  }
  EXPECT_EQ(back->attribute(0).categories, s.attribute(0).categories);
  EXPECT_DOUBLE_EQ(back->attribute(1).numeric_min, 0.5);
  EXPECT_EQ(back->attribute(2).date_max, DaysFromCivil({2010, 12, 31}));
}

TEST(SchemaSpecTest, HugeNumericBoundsRoundTrip) {
  // FormatDouble prints 1e300 as its 301 integer digits, which parse back
  // to the same double.
  std::istringstream in("amount numeric 0 1e300\n");
  auto schema = ParseSchemaSpec(&in);
  ASSERT_TRUE(schema.ok()) << schema.status();
  std::istringstream again(FormatSchemaSpec(*schema));
  auto back = ParseSchemaSpec(&again);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->attribute(0).numeric_min, 0.0);
  EXPECT_EQ(back->attribute(0).numeric_max, 1e300);
  EXPECT_EQ(back->attribute(0).numeric_max, schema->attribute(0).numeric_max);
}

bool SameSchema(const Schema& a, const Schema& b) {
  if (a.num_attributes() != b.num_attributes()) return false;
  for (size_t i = 0; i < a.num_attributes(); ++i) {
    const AttributeDef& x = a.attribute(i);
    const AttributeDef& y = b.attribute(i);
    if (x.name != y.name || x.type != y.type ||
        x.categories != y.categories || x.numeric_min != y.numeric_min ||
        x.numeric_max != y.numeric_max || x.date_min != y.date_min ||
        x.date_max != y.date_max) {
      return false;
    }
  }
  return true;
}

TEST(SchemaSpecTest, MutatedSpecFailsOrRoundTripsThroughFormat) {
  // Every mutant of the QUIS spec either fails with a Status or parses to
  // a schema whose FormatSchemaSpec text parses back to an equal schema:
  // names, types, categories and bounds.
  std::ifstream file(DQ_TESTDATA_DIR "/quis_full.spec", std::ios::binary);
  ASSERT_TRUE(file.good());
  const std::string spec((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  using std::string_view_literals::operator""sv;
  const std::vector<std::string_view> tokens = {
      "nominal"sv,    "numeric"sv,          "date"sv,
      "#"sv,          "1e-300"sv,           "0.1234567"sv,
      "-0"sv,         "1e308"sv,            "4.9e-324"sv,
      "a,,b"sv,       "2003-06-30"sv,       "0-01-01"sv,
      "4294969299-06-01"sv, "2003-4294967302-01"sv, "6000000-01-01"sv,
  };
  Rng rng(25);
  constexpr int kCases = 20000;
  int parsed = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = spec;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) {
      Mutate(&rng, &text, tokens, " \n,"sv);
    }
    std::istringstream in(text);
    auto schema = ParseSchemaSpec(&in);
    if (!schema.ok()) {
      ASSERT_FALSE(schema.status().message().empty()) << "case " << c;
      continue;
    }
    ++parsed;
    const std::string formatted = FormatSchemaSpec(*schema);
    std::istringstream again(formatted);
    auto back = ParseSchemaSpec(&again);
    ASSERT_TRUE(back.ok()) << "case " << c << ": " << back.status() << "\n"
                           << formatted;
    ASSERT_TRUE(SameSchema(*schema, *back)) << "case " << c << "\n"
                                            << formatted;
  }
  // Both outcomes occur.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCases);
}

TEST(SchemaSpecTest, MissingFileFails) {
  EXPECT_FALSE(ParseSchemaSpecFile("/nonexistent/schema.txt").ok());
}

}  // namespace
}  // namespace dq
