// Additional behavioural coverage: CSV dialect options, null-flagging
// policy end-to-end, custom polluter mixes through the test environment,
// and review rendering without dissent.

#include <gtest/gtest.h>

#include <sstream>

#include "audit/review.h"
#include "audit/summary.h"
#include "eval/test_environment.h"
#include "table/csv.h"

namespace dq {
namespace {

Schema SmallSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"a0", "a1", "a2"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"b0", "b1", "b2"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 10.0).ok());
  return s;
}

// --- CSV dialect options ------------------------------------------------------

TEST(CsvDialectTest, CustomSeparatorRoundTrip) {
  Schema s = SmallSchema();
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::Nominal(1), Value::Nominal(2), Value::Numeric(3.5)})
          .ok());
  CsvOptions opts;
  opts.separator = ';';
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  EXPECT_NE(os.str().find("A;B;N"), std::string::npos);
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->cell(0, 1).nominal_code(), 2);
}

TEST(CsvDialectTest, HeaderlessRoundTrip) {
  Schema s = SmallSchema();
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::Nominal(0), Value::Null(), Value::Numeric(1.0)})
          .ok());
  CsvOptions opts;
  opts.write_header = false;
  opts.expect_header = false;
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  EXPECT_EQ(os.str().find("A,B,N"), std::string::npos);
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->cell(0, 1).is_null());
}

TEST(CsvDialectTest, CustomNullToken) {
  Schema s = SmallSchema();
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::Null(), Value::Nominal(0), Value::Numeric(0.0)})
          .ok());
  CsvOptions opts;
  opts.null_token = "NULL";
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  EXPECT_NE(os.str().find("NULL"), std::string::npos);
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->cell(0, 0).is_null());
}

// --- Null-flagging policy end-to-end ----------------------------------------------

TEST(NullPolicyTest, PlantedNullFlaggedOnlyWhenEnabled) {
  // B mirrors A; one record carries a null B.
  Schema s = SmallSchema();
  Table t(s);
  Rng rng(50);
  for (int i = 0; i < 2000; ++i) {
    const int32_t a = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(3);
    row[0] = Value::Nominal(a);
    row[1] = i == 0 ? Value::Null() : Value::Nominal(a);
    row[2] = Value::Numeric(rng.UniformReal(0, 10));
    t.AppendRowUnchecked(std::move(row));
  }
  AuditorConfig with_nulls;
  with_nulls.flag_null_values = true;
  AuditorConfig without_nulls;
  without_nulls.flag_null_values = false;

  auto m1 = Auditor(with_nulls).Induce(t);
  auto m2 = Auditor(without_nulls).Induce(t);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto r1 = Auditor(with_nulls).Audit(*m1, t);
  auto r2 = Auditor(without_nulls).Audit(*m2, t);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->IsFlagged(0));
  EXPECT_FALSE(r2->IsFlagged(0));
}

// --- TestEnvironment with a custom polluter mix -------------------------------------

TEST(TestEnvironmentTest, CustomPolluterMixIsUsed) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 800;
  cfg.num_rules = 10;
  cfg.seed = 33;
  // Only the duplicator: every corrupted record must be a duplicate.
  cfg.polluters = {PolluterConfig::Duplicator(0.05, 1.0)};
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->corrupted, 0u);
  for (const CorruptionEvent& ev : result->pollution.log) {
    EXPECT_EQ(ev.kind, PolluterKind::kDuplicator);
  }
  EXPECT_GT(result->pollution.dirty.num_rows(), result->clean.num_rows());
}

// --- Review without dissent -----------------------------------------------------------

TEST(ReviewRenderTest, NoDissentSheet) {
  Schema s = SmallSchema();
  Table t(s);
  Rng rng(51);
  for (int i = 0; i < 1000; ++i) {
    const int32_t a = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(3);
    row[0] = Value::Nominal(a);
    row[1] = Value::Nominal(a);
    row[2] = Value::Numeric(rng.UniformReal(0, 10));
    t.AppendRowUnchecked(std::move(row));
  }
  AuditorConfig cfg;
  Auditor auditor(cfg);
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto detail = ExplainRecord(*model, t, 5, cfg);
  ASSERT_TRUE(detail.ok());
  if (detail->dissenting.empty()) {
    const std::string sheet = RenderSuspicionDetail(*detail, *model, t);
    EXPECT_NE(sheet.find("no classifier dissents"), std::string::npos);
  }
  EXPECT_GE(detail->agreeing, 1u);
}

// --- Audit summary ----------------------------------------------------------------

TEST(AuditSummaryTest, AggregatesPerAttribute) {
  Schema s = SmallSchema();
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value::Nominal(0), Value::Nominal(0), Value::Numeric(1)})
          .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Nominal(1), Value::Null(), Value::Numeric(2)}).ok());
  ASSERT_TRUE(
      t.AppendRow({Value::Nominal(2), Value::Nominal(2), Value::Numeric(3)})
          .ok());

  AuditReport report;
  Suspicion s1;
  s1.row = 0;
  s1.attr = 0;
  s1.error_confidence = 0.9;
  s1.observed = Value::Nominal(0);
  Suspicion s2;
  s2.row = 1;
  s2.attr = 1;
  s2.error_confidence = 0.85;
  s2.observed = Value::Null();
  Suspicion s3;
  s3.row = 2;
  s3.attr = 1;
  s3.error_confidence = 0.95;
  s3.observed = Value::Nominal(2);
  report.suspicious = {s3, s1, s2};

  const AuditSummary summary = SummarizeReport(report.suspicious, t.num_rows());
  EXPECT_EQ(summary.records, 3u);
  EXPECT_EQ(summary.flagged, 3u);
  EXPECT_NEAR(summary.flag_rate, 1.0, 1e-12);
  ASSERT_EQ(summary.by_attribute.size(), 2u);
  // Attribute B (index 1) has the most flags and ranks first.
  EXPECT_EQ(summary.by_attribute[0].attr, 1);
  EXPECT_EQ(summary.by_attribute[0].flagged, 2u);
  EXPECT_NEAR(summary.by_attribute[0].mean_confidence, 0.9, 1e-12);
  EXPECT_NEAR(summary.by_attribute[0].max_confidence, 0.95, 1e-12);
  EXPECT_EQ(summary.by_attribute[0].null_observations, 1u);
  EXPECT_EQ(summary.by_attribute[1].attr, 0);

  const std::string rendered = RenderAuditSummary(summary, s);
  EXPECT_NE(rendered.find("3 suspicious"), std::string::npos);
  EXPECT_NE(rendered.find("B"), std::string::npos);
}

TEST(AuditSummaryTest, EmptyReport) {
  Schema s = SmallSchema();
  Table t(s);
  AuditReport report;
  const AuditSummary summary = SummarizeReport(report.suspicious, t.num_rows());
  EXPECT_EQ(summary.records, 0u);
  EXPECT_EQ(summary.flagged, 0u);
  EXPECT_DOUBLE_EQ(summary.flag_rate, 0.0);
  EXPECT_TRUE(summary.by_attribute.empty());
  EXPECT_FALSE(RenderAuditSummary(summary, s).empty());
}

}  // namespace
}  // namespace dq
