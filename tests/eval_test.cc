// Tests for the evaluation layer: the 2x2 performance matrices of sec. 4.3
// and the test environment pipeline of fig. 2.

#include <gtest/gtest.h>

#include <sstream>

#include "eval/metrics.h"
#include "eval/report_io.h"
#include "eval/table_split.h"
#include "eval/test_environment.h"

namespace dq {
namespace {

// --- DetectionMatrix ---------------------------------------------------------

TEST(DetectionMatrixTest, SensitivityAndSpecificity) {
  DetectionMatrix m;
  m.true_positive = 30;
  m.false_negative = 70;   // 100 corrupted
  m.false_positive = 10;
  m.true_negative = 990;   // 1000 clean
  EXPECT_DOUBLE_EQ(m.Sensitivity(), 0.3);
  EXPECT_DOUBLE_EQ(m.Specificity(), 0.99);
  EXPECT_DOUBLE_EQ(m.Precision(), 0.75);
}

TEST(DetectionMatrixTest, DegenerateCases) {
  DetectionMatrix empty;
  EXPECT_DOUBLE_EQ(empty.Sensitivity(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Specificity(), 1.0);
  EXPECT_DOUBLE_EQ(empty.Precision(), 0.0);
}

TEST(DetectionMatrixTest, ToStringContainsCells) {
  DetectionMatrix m;
  m.true_positive = 7;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("7 (TP)"), std::string::npos);
  EXPECT_NE(s.find("sensitivity"), std::string::npos);
}

// --- CorrectionMatrix ---------------------------------------------------------

TEST(CorrectionMatrixTest, ImprovementFormula) {
  // ((c+d) - (b+d)) / (c+d) per sec. 4.3.
  CorrectionMatrix m;
  m.a = 900;
  m.b = 5;
  m.c = 60;
  m.d = 40;
  EXPECT_DOUBLE_EQ(m.Improvement(), (100.0 - 45.0) / 100.0);
}

TEST(CorrectionMatrixTest, NoErrorsBeforeGivesZero) {
  CorrectionMatrix m;
  m.a = 100;
  EXPECT_DOUBLE_EQ(m.Improvement(), 0.0);
}

TEST(CorrectionMatrixTest, DamageCanMakeImprovementNegative) {
  CorrectionMatrix m;
  m.b = 30;  // 30 records damaged by corrections
  m.c = 10;
  m.d = 10;
  EXPECT_LT(m.Improvement(), 0.0);
}

// --- EvaluateDetection / EvaluateCorrection --------------------------------------

TEST(EvaluateTest, DetectionCountsMatchGroundTruth) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a", "b"}).ok());
  Table clean(s);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(clean.AppendRow({Value::Nominal(0)}).ok());
  }
  PollutionResult pollution;
  pollution.dirty = clean;
  pollution.origin = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  pollution.is_corrupted = {true, true, false, false, false,
                            false, false, false, false, false};
  AuditReport report;
  report.flagged = {true, false, true, false, false,
                     false, false, false, false, false};
  DetectionMatrix m = EvaluateDetection(pollution, report);
  EXPECT_EQ(m.true_positive, 1u);
  EXPECT_EQ(m.false_negative, 1u);
  EXPECT_EQ(m.false_positive, 1u);
  EXPECT_EQ(m.true_negative, 7u);
}

TEST(EvaluateTest, RowMatchesCleanComparesOrigin) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a", "b"}).ok());
  Table clean(s);
  ASSERT_TRUE(clean.AppendRow({Value::Nominal(0)}).ok());
  ASSERT_TRUE(clean.AppendRow({Value::Nominal(1)}).ok());
  PollutionResult pollution;
  pollution.dirty = clean;
  pollution.dirty.SetCell(1, 0, Value::Nominal(0));  // corrupt row 1
  pollution.origin = {0, 1};
  EXPECT_TRUE(RowMatchesClean(clean, pollution, pollution.dirty, 0));
  EXPECT_FALSE(RowMatchesClean(clean, pollution, pollution.dirty, 1));
}

TEST(EvaluateTest, CorrectionMatrixFromTables) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a", "b", "c"}).ok());
  Table clean(s);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(clean.AppendRow({Value::Nominal(0)}).ok());
  }
  PollutionResult pollution;
  pollution.dirty = clean;
  pollution.origin = {0, 1, 2, 3};
  // Rows 2, 3 corrupted.
  pollution.dirty.SetCell(2, 0, Value::Nominal(1));
  pollution.dirty.SetCell(3, 0, Value::Nominal(1));

  Table corrected = pollution.dirty;
  corrected.SetCell(2, 0, Value::Nominal(0));  // repaired
  corrected.SetCell(1, 0, Value::Nominal(2));  // damaged a clean row
  CorrectionMatrix m = EvaluateCorrection(clean, pollution, corrected);
  EXPECT_EQ(m.a, 1u);  // row 0 stayed correct
  EXPECT_EQ(m.b, 1u);  // row 1 damaged
  EXPECT_EQ(m.c, 1u);  // row 2 repaired
  EXPECT_EQ(m.d, 1u);  // row 3 still wrong
}

// --- TestEnvironment ------------------------------------------------------------

TEST(TestEnvironmentTest, SmallRunProducesCoherentResult) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 1500;
  cfg.num_rules = 12;
  cfg.seed = 5;
  TestEnvironment env(cfg);
  auto result = env.Run();
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->clean.num_rows(), 1500u);
  EXPECT_EQ(result->rules.size(), 12u);
  EXPECT_GT(result->corrupted, 0u);
  // Matrix cells add up to the dirty table size.
  const DetectionMatrix& m = result->detection;
  EXPECT_EQ(m.true_positive + m.false_negative + m.false_positive +
                m.true_negative,
            result->pollution.dirty.num_rows());
  // Specificity is high at minConf 0.8 (sec. 6.1 reports ~99%).
  EXPECT_GT(result->specificity, 0.97);
  EXPECT_GE(result->sensitivity, 0.0);
  EXPECT_LE(result->sensitivity, 1.0);
}

TEST(TestEnvironmentTest, DeterministicForSeed) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 600;
  cfg.num_rules = 6;
  cfg.seed = 9;
  auto r1 = TestEnvironment(cfg).Run();
  auto r2 = TestEnvironment(cfg).Run();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->sensitivity, r2->sensitivity);
  EXPECT_EQ(r1->specificity, r2->specificity);
  EXPECT_EQ(r1->flagged, r2->flagged);
  EXPECT_EQ(r1->corrupted, r2->corrupted);
}

TEST(TestEnvironmentTest, CleanDataFollowsGeneratedRules) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 800;
  cfg.num_rules = 10;
  cfg.seed = 12;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok());
  size_t violations = 0;
  for (size_t r = 0; r < result->clean.num_rows(); ++r) {
    const Row row = result->clean.row(r);
    for (const Rule& rule : result->rules) {
      if (rule.Violates(row)) ++violations;
    }
  }
  EXPECT_LE(violations, 8u);  // unresolved records are rare
}

TEST(TestEnvironmentTest, PollutionFactorZeroMeansNothingFlaggedAsError) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 700;
  cfg.num_rules = 8;
  cfg.pollution_factor = 0.0;
  cfg.seed = 14;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->corrupted, 0u);
  EXPECT_EQ(result->detection.true_positive, 0u);
}

// --- SplitTable -------------------------------------------------------------------

TEST(TableSplitTest, PartitionsWithoutLossOrDuplication) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", 0, 1000).ok());
  Table t(s);
  for (int i = 0; i < 100; ++i) {
    t.AppendRowUnchecked({Value::Numeric(static_cast<double>(i))});
  }
  auto split = SplitTable(t, 0.7, 9);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.num_rows(), 70u);
  EXPECT_EQ(split->test.num_rows(), 30u);
  std::vector<bool> seen(100, false);
  for (size_t r : split->train_rows) seen[r] = true;
  for (size_t r : split->test_rows) {
    EXPECT_FALSE(seen[r]) << "row in both partitions";
    seen[r] = true;
  }
  for (bool b : seen) EXPECT_TRUE(b);
  // Rows carry the original values.
  for (size_t i = 0; i < split->train.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(split->train.cell(i, 0).numeric(),
                     static_cast<double>(split->train_rows[i]));
  }
}

TEST(TableSplitTest, DeterministicAndSeedSensitive) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", 0, 1000).ok());
  Table t(s);
  for (int i = 0; i < 50; ++i) {
    t.AppendRowUnchecked({Value::Numeric(static_cast<double>(i))});
  }
  auto a = SplitTable(t, 0.5, 4);
  auto b = SplitTable(t, 0.5, 4);
  auto c = SplitTable(t, 0.5, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->train_rows, b->train_rows);
  EXPECT_NE(a->train_rows, c->train_rows);
}

TEST(TableSplitTest, ExtremesAndValidation) {
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", 0, 10).ok());
  Table t(s);
  t.AppendRowUnchecked({Value::Numeric(1.0)});
  EXPECT_FALSE(SplitTable(t, -0.1, 1).ok());
  EXPECT_FALSE(SplitTable(t, 1.1, 1).ok());
  auto all_train = SplitTable(t, 1.0, 1);
  ASSERT_TRUE(all_train.ok());
  EXPECT_EQ(all_train->train.num_rows(), 1u);
  EXPECT_EQ(all_train->test.num_rows(), 0u);
}

// --- Report CSV -------------------------------------------------------------------

TEST(ReportIoTest, WritesRankedRows) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a", "b"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Nominal(1)}).ok());
  AuditReport report;
  report.record_confidence = {0.9, 0.95};
  Suspicion s1;
  s1.row = 1;
  s1.error_confidence = 0.95;
  s1.attr = 0;
  s1.observed = Value::Nominal(1);
  s1.suggestion = Value::Nominal(0);
  s1.support = 100;
  Suspicion s2 = s1;
  s2.row = 0;
  s2.error_confidence = 0.9;
  report.suspicious = {s1, s2};

  std::ostringstream os;
  ASSERT_TRUE(WriteAuditReportCsv(report, t, &os).ok());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("rank,row,error_confidence"), std::string::npos);
  EXPECT_NE(csv.find("1,1,0.95,A,b,a,100"), std::string::npos);
  EXPECT_NE(csv.find("2,0,0.9,A,b,a,100"), std::string::npos);
}

TEST(ReportIoTest, QuotesValuesContainingSeparators) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"plain", "with,comma"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(1)}).ok());
  AuditReport report;
  Suspicion sus;
  sus.row = 0;
  sus.error_confidence = 0.9;
  sus.attr = 0;
  sus.observed = Value::Nominal(1);
  sus.suggestion = Value::Nominal(0);
  sus.support = 10;
  report.suspicious = {sus};
  std::ostringstream os;
  ASSERT_TRUE(WriteAuditReportCsv(report, t, &os).ok());
  EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
}

TEST(ReportIoTest, RejectsMismatchedReport) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a", "b"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0)}).ok());
  AuditReport report;
  Suspicion bad;
  bad.row = 5;  // out of range
  bad.attr = 0;
  report.suspicious = {bad};
  std::ostringstream os;
  EXPECT_FALSE(WriteAuditReportCsv(report, t, &os).ok());
}

}  // namespace
}  // namespace dq
