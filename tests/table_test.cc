// Unit tests for src/table: Value, dates, Schema, Table, CSV.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "table/csv.h"
#include "table/date.h"
#include "table/schema.h"
#include "table/table.h"

namespace dq {
namespace {

Schema TestSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("color", {"red", "green", "blue"}).ok());
  EXPECT_TRUE(s.AddNumeric("weight", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddDate("built", DaysFromCivil({2000, 1, 1}),
                        DaysFromCivil({2010, 12, 31}))
                  .ok());
  return s;
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToDebugString(), "null");
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Nominal(3).nominal_code(), 3);
  EXPECT_DOUBLE_EQ(Value::Numeric(2.5).numeric(), 2.5);
  EXPECT_EQ(Value::Date(100).date_days(), 100);
}

TEST(ValueTest, SqlEqualityNullNeverEqual) {
  EXPECT_FALSE(Value::Null().EqualsSql(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsSql(Value::Nominal(0)));
  EXPECT_FALSE(Value::Nominal(0).EqualsSql(Value::Null()));
  EXPECT_TRUE(Value::Nominal(2).EqualsSql(Value::Nominal(2)));
}

TEST(ValueTest, StrictEqualsIncludesNulls) {
  EXPECT_TRUE(Value::Null().StrictEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().StrictEquals(Value::Numeric(0.0)));
  EXPECT_TRUE(Value::Numeric(1.5).StrictEquals(Value::Numeric(1.5)));
  EXPECT_FALSE(Value::Numeric(1.5).StrictEquals(Value::Date(1)));
}

TEST(ValueTest, CompareOrdersNumericAndDate) {
  EXPECT_LT(Value::Numeric(1.0).Compare(Value::Numeric(2.0)), 0);
  EXPECT_GT(Value::Numeric(3.0).Compare(Value::Numeric(2.0)), 0);
  EXPECT_EQ(Value::Date(5).Compare(Value::Date(5)), 0);
  EXPECT_LT(Value::Date(4).Compare(Value::Date(5)), 0);
}

TEST(ValueTest, OrderedValueForDates) {
  EXPECT_DOUBLE_EQ(Value::Date(-3).OrderedValue(), -3.0);
  EXPECT_DOUBLE_EQ(Value::Numeric(7.5).OrderedValue(), 7.5);
}

// --- Dates ------------------------------------------------------------------

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 1}), 0);
  CivilDate c = CivilFromDays(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 2}), 1);
  EXPECT_EQ(DaysFromCivil({1969, 12, 31}), -1);
  EXPECT_EQ(DaysFromCivil({2000, 3, 1}), 11017);
}

TEST(DateTest, RoundTripSweep) {
  // Property: CivilFromDays(DaysFromCivil(d)) == d over a broad sweep.
  for (int32_t days = -20000; days <= 20000; days += 37) {
    CivilDate c = CivilFromDays(days);
    EXPECT_EQ(DaysFromCivil(c), days) << "days=" << days;
    EXPECT_TRUE(IsValidCivil(c));
  }
}

TEST(DateTest, LeapYearValidation) {
  EXPECT_TRUE(IsValidCivil({2000, 2, 29}));   // divisible by 400
  EXPECT_FALSE(IsValidCivil({1900, 2, 29}));  // divisible by 100 only
  EXPECT_TRUE(IsValidCivil({2004, 2, 29}));
  EXPECT_FALSE(IsValidCivil({2003, 2, 29}));
  EXPECT_FALSE(IsValidCivil({2003, 4, 31}));
  EXPECT_FALSE(IsValidCivil({2003, 13, 1}));
  EXPECT_FALSE(IsValidCivil({2003, 0, 1}));
}

TEST(DateTest, FormatAndParse) {
  const int32_t d = DaysFromCivil({2003, 9, 5});
  EXPECT_EQ(FormatDate(d), "2003-09-05");
  auto parsed = ParseDate("2003-09-05");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, d);
}

TEST(DateTest, ParseRejectsInvalid) {
  EXPECT_FALSE(ParseDate("2003-02-30").ok());
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("2003/01/01").ok());
  EXPECT_FALSE(ParseDate("").ok());
}

TEST(DateTest, ParseRejectsComponentsAndDaysPastInt32) {
  // Each spelling narrows onto 2003-06-01 when a component wraps at 2^32.
  for (const char* text :
       {"4294969299-06-01", "2003-4294967302-01", "2003-06-4294967297"}) {
    EXPECT_FALSE(ParseDate(text).ok()) << text;
  }
  // Years past about 5.88 million have day counts past INT32_MAX.
  EXPECT_FALSE(ParseDate("6000000-01-01").ok());
  EXPECT_FALSE(ParseDate("2147483647-12-31").ok());
  // The last representable day formats and parses back.
  for (const int32_t days : {std::numeric_limits<int32_t>::max(),
                             std::numeric_limits<int32_t>::max() - 719468}) {
    auto back = ParseDate(FormatDate(days));
    ASSERT_TRUE(back.ok()) << FormatDate(days) << ": " << back.status();
    EXPECT_EQ(*back, days) << FormatDate(days);
  }
}

TEST(DateTest, EveryInt32DayRoundTripsThroughItsText) {
  // FormatDate writes a year before 0000 with its sign (-001-12-31 is the
  // day before 0000-01-01), and ParseDate reads it back.
  EXPECT_EQ(FormatDate(-719529), "-001-12-31");
  EXPECT_EQ(FormatDate(-719528), "0000-01-01");
  std::vector<int32_t> days = {std::numeric_limits<int32_t>::min(),
                               -719529, -719528, -1, 0,
                               std::numeric_limits<int32_t>::max()};
  for (int64_t d = std::numeric_limits<int32_t>::min();
       d <= std::numeric_limits<int32_t>::max(); d += 9973) {
    days.push_back(static_cast<int32_t>(d));
  }
  for (const int32_t d : days) {
    auto back = ParseDate(FormatDate(d));
    ASSERT_TRUE(back.ok()) << d << " " << FormatDate(d) << ": "
                           << back.status();
    ASSERT_EQ(*back, d) << FormatDate(d);
  }
  // A sign is read only in front of the year.
  EXPECT_FALSE(ParseDate("--001-12-31").ok());
  EXPECT_FALSE(ParseDate("2003--06-01").ok());
  EXPECT_FALSE(ParseDate("-").ok());
}

// --- Schema -----------------------------------------------------------------

TEST(SchemaTest, BuildsAndLooksUp) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(*s.IndexOf("weight"), 1);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_EQ(s.attribute(0).type, DataType::kNominal);
  EXPECT_EQ(s.attribute(0).DomainSize(), 3u);
  EXPECT_EQ(s.attribute(1).DomainSize(), 0u);  // numeric: unbounded
}

TEST(SchemaTest, RejectsDuplicateAttribute) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", 0, 1).ok());
  EXPECT_EQ(s.AddNumeric("x", 0, 1).code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsBadNominalDomains) {
  Schema s;
  EXPECT_FALSE(s.AddNominal("empty", {}).ok());
  EXPECT_FALSE(s.AddNominal("dup", {"a", "a"}).ok());
  EXPECT_FALSE(s.AddNominal("blank", {""}).ok());
  EXPECT_FALSE(s.AddNominal("", {"a"}).ok());
}

TEST(SchemaTest, RejectsEmptyRanges) {
  Schema s;
  EXPECT_FALSE(s.AddNumeric("n", 2.0, 1.0).ok());
  EXPECT_FALSE(s.AddDate("d", 10, 5).ok());
}

TEST(SchemaTest, CategoryCode) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.CategoryCode(0, "green"), 1);
  EXPECT_FALSE(s.CategoryCode(0, "purple").ok());
  EXPECT_FALSE(s.CategoryCode(1, "red").ok());  // not nominal
  EXPECT_FALSE(s.CategoryCode(9, "red").ok());  // out of range
}

TEST(SchemaTest, InDomainChecks) {
  Schema s = TestSchema();
  EXPECT_TRUE(s.attribute(0).InDomain(Value::Nominal(2)));
  EXPECT_FALSE(s.attribute(0).InDomain(Value::Nominal(3)));
  EXPECT_FALSE(s.attribute(0).InDomain(Value::Numeric(1.0)));
  EXPECT_TRUE(s.attribute(1).InDomain(Value::Numeric(100.0)));
  EXPECT_FALSE(s.attribute(1).InDomain(Value::Numeric(100.1)));
  EXPECT_TRUE(s.attribute(0).InDomain(Value::Null()));
}

TEST(SchemaTest, ValueToStringAndParseRoundTrip) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ValueToString(0, Value::Nominal(2)), "blue");
  EXPECT_EQ(s.ValueToString(1, Value::Numeric(2.5)), "2.5");
  EXPECT_EQ(s.ValueToString(0, Value::Null()), "?");

  auto v = s.ParseValue(0, "red");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->nominal_code(), 0);
  auto n = s.ParseValue(1, "33.25");
  ASSERT_TRUE(n.ok());
  EXPECT_DOUBLE_EQ(n->numeric(), 33.25);
  auto d = s.ParseValue(2, "2005-06-07");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->date_days(), DaysFromCivil({2005, 6, 7}));
  auto nul = s.ParseValue(1, "?");
  ASSERT_TRUE(nul.ok());
  EXPECT_TRUE(nul->is_null());
  EXPECT_FALSE(s.ParseValue(0, "purple").ok());
}

// --- Table ------------------------------------------------------------------

Row MakeRow(int color, double weight, int32_t built) {
  return {Value::Nominal(color), Value::Numeric(weight), Value::Date(built)};
}

TEST(TableTest, AppendValidatesArity) {
  Table t(TestSchema());
  EXPECT_FALSE(t.AppendRow({Value::Nominal(0)}).ok());
  EXPECT_TRUE(t.AppendRow(MakeRow(0, 50.0, DaysFromCivil({2005, 1, 1}))).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, AppendValidatesDomains) {
  Table t(TestSchema());
  EXPECT_FALSE(t.AppendRow(MakeRow(5, 50.0, DaysFromCivil({2005, 1, 1}))).ok());
  EXPECT_FALSE(t.AppendRow(MakeRow(0, 500.0, DaysFromCivil({2005, 1, 1}))).ok());
  EXPECT_FALSE(t.AppendRow(MakeRow(0, 50.0, DaysFromCivil({2020, 1, 1}))).ok());
}

TEST(TableTest, NullCellsAllowed) {
  Table t(TestSchema());
  EXPECT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(t.cell(0, 0).is_null());
}

TEST(TableTest, SetCellAndRemoveRow) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow(MakeRow(0, 1.0, 11000)).ok());
  ASSERT_TRUE(t.AppendRow(MakeRow(1, 2.0, 11000)).ok());
  t.SetCell(0, 1, Value::Numeric(9.0));
  EXPECT_DOUBLE_EQ(t.cell(0, 1).numeric(), 9.0);
  t.RemoveRow(0);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.cell(0, 0).nominal_code(), 1);
}

TEST(TableTest, ValidateDetectsCorruptUncheckedRows) {
  Table t(TestSchema());
  t.AppendRowUnchecked(MakeRow(99, 1.0, 11000));
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, RemoveRowsBatchedStableCompaction) {
  Table t(TestSchema());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendRow(MakeRow(i % 3, static_cast<double>(i), 11000)).ok());
  }
  // Duplicates tolerated; survivors keep their order.
  t.RemoveRows({1, 3, 3, 4});
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(t.cell(0, 1).numeric(), 0.0);
  EXPECT_DOUBLE_EQ(t.cell(1, 1).numeric(), 2.0);
  EXPECT_DOUBLE_EQ(t.cell(2, 1).numeric(), 5.0);
  t.RemoveRows({});  // no-op
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(TableTest, CellAtThrowsOutOfRange) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow(MakeRow(0, 1.0, 11000)).ok());
  EXPECT_NO_THROW(t.cell_at(0, 2));
  EXPECT_THROW(t.cell_at(1, 0), std::out_of_range);
  EXPECT_THROW(t.cell_at(0, 3), std::out_of_range);
}

TEST(TableTest, ByteSizeTracksColumnPayloadsBitmapsAndStringPool) {
  Table t(TestSchema());
  // An empty table still keeps the schema string pool resident (attribute
  // names + nominal category spellings); nominal cells are codes into it.
  const size_t pool = t.schema().string_pool_bytes();
  EXPECT_GT(pool, 0u);
  EXPECT_EQ(t.byte_size(), pool);
  ASSERT_TRUE(t.AppendRow(MakeRow(0, 1.0, 11000)).ok());
  // nominal int32 + numeric double + date int32 + three 1-word bitmaps.
  EXPECT_EQ(t.byte_size(), pool + sizeof(int32_t) * 2 + sizeof(double) +
                               3 * sizeof(uint64_t));
  for (int i = 0; i < 63; ++i) {
    ASSERT_TRUE(t.AppendRow(MakeRow(1, 2.0, 11000)).ok());
  }
  // 64 rows still fit one bitmap word per column.
  EXPECT_EQ(t.byte_size(), pool + 64 * (sizeof(int32_t) * 2 + sizeof(double)) +
                               3 * sizeof(uint64_t));
  ASSERT_TRUE(t.AppendRow(MakeRow(1, 2.0, 11000)).ok());
  // The 65th row grows every bitmap to two words.
  EXPECT_EQ(t.byte_size(), pool + 65 * (sizeof(int32_t) * 2 + sizeof(double)) +
                               6 * sizeof(uint64_t));
  t.Clear();
  EXPECT_EQ(t.byte_size(), pool);
}

// --- CSV --------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  Schema s = TestSchema();
  Table t(s);
  ASSERT_TRUE(t.AppendRow(MakeRow(2, 12.5, DaysFromCivil({2001, 2, 3}))).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Numeric(0.0),
                           Value::Null()})
                  .ok());
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());

  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->cell(0, 0).nominal_code(), 2);
  EXPECT_DOUBLE_EQ(back->cell(0, 1).numeric(), 12.5);
  EXPECT_EQ(back->cell(0, 2).date_days(), DaysFromCivil({2001, 2, 3}));
  EXPECT_TRUE(back->cell(1, 0).is_null());
  EXPECT_TRUE(back->cell(1, 2).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  Schema s = TestSchema();
  std::istringstream is("color,weight,WRONG\nred,1.0,2005-01-01\n");
  EXPECT_FALSE(ReadCsv(s, &is).ok());
}

TEST(CsvTest, ArityMismatchRejected) {
  Schema s = TestSchema();
  std::istringstream is("color,weight,built\nred,1.0\n");
  EXPECT_FALSE(ReadCsv(s, &is).ok());
}

TEST(CsvTest, QuotedFieldsWithSeparators) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("name", {"a,b", "plain", "with \"quote\""}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Nominal(2)}).ok());
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->cell(0, 0).nominal_code(), 0);
  EXPECT_EQ(back->cell(1, 0).nominal_code(), 2);
}

TEST(CsvTest, BadValueReportsLine) {
  Schema s = TestSchema();
  std::istringstream is("color,weight,built\npurple,1.0,2005-01-01\n");
  auto r = ReadCsv(s, &is);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, FileRoundTrip) {
  Schema s = TestSchema();
  Table t(s);
  ASSERT_TRUE(t.AppendRow(MakeRow(1, 3.5, 11100)).ok());
  const std::string path = testing::TempDir() + "/dq_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(s, path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
}

TEST(CsvTest, MissingFileFails) {
  Schema s = TestSchema();
  EXPECT_FALSE(ReadCsvFile(s, "/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace dq
