// Tests for the data auditing core (sec. 5.2-5.4): error confidence,
// structure induction, deviation detection, correction proposals and rule
// export.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "audit/auditor.h"
#include "audit/error_confidence.h"
#include "audit/rule_export.h"
#include "common/random.h"
#include "mining/encoded_dataset.h"
#include "quis/quis_sample.h"
#include "stats/confidence.h"

namespace dq {
namespace {

Prediction MakePrediction(std::vector<double> dist, double support) {
  Prediction p;
  p.distribution = std::move(dist);
  p.support = support;
  return p;
}

// --- Def. 7 ---------------------------------------------------------------------

TEST(ErrorConfidenceTest, ZeroWhenObservedEqualsPredicted) {
  Prediction p = MakePrediction({0.1, 0.9}, 1000);
  EXPECT_DOUBLE_EQ(ErrorConfidence(p, 1, 0.95), 0.0);
}

TEST(ErrorConfidenceTest, HighForStrongDeviations) {
  Prediction p = MakePrediction({0.999, 0.001}, 10000);
  EXPECT_GT(ErrorConfidence(p, 1, 0.95), 0.98);
}

TEST(ErrorConfidenceTest, PaperMotivatingExampleOne) {
  // P1 = (0.2, 0.2, 0.2, 0.1, 0.3) and P2 = (0.2, 0.8, 0, 0, 0) observing
  // the first class: "an error is more apparent in the second case".
  Prediction p1 = MakePrediction({0.2, 0.2, 0.2, 0.1, 0.3}, 1000);
  Prediction p2 = MakePrediction({0.2, 0.8, 0.0, 0.0, 0.0}, 1000);
  EXPECT_GT(ErrorConfidence(p2, 0, 0.95), ErrorConfidence(p1, 0, 0.95));
}

TEST(ErrorConfidenceTest, PaperMotivatingExampleTwo) {
  // P1 = (0.0, 0.1, 0.9) vs P2 = (0.1, 0.0, 0.9) observing the first class:
  // the distributions "should not lead to equal error scores" — observing a
  // class that never occurred in training (P1) is a stronger deviation.
  Prediction p1 = MakePrediction({0.0, 0.1, 0.9}, 1000);
  Prediction p2 = MakePrediction({0.1, 0.0, 0.9}, 1000);
  EXPECT_GT(ErrorConfidence(p1, 0, 0.95), ErrorConfidence(p2, 0, 0.95));
}

TEST(ErrorConfidenceTest, GrowsWithSampleSize) {
  // Same distribution, more evidence -> tighter bounds -> higher
  // confidence (this drives the fig. 3 sensitivity curve).
  Prediction small = MakePrediction({0.95, 0.05}, 30);
  Prediction large = MakePrediction({0.95, 0.05}, 30000);
  EXPECT_GT(ErrorConfidence(large, 1, 0.95), ErrorConfidence(small, 1, 0.95));
}

TEST(ErrorConfidenceTest, ZeroSupportGivesZero) {
  Prediction p = MakePrediction({1.0, 0.0}, 0.0);
  EXPECT_DOUBLE_EQ(ErrorConfidence(p, 1, 0.95), 0.0);
}

TEST(ErrorConfidenceTest, NullObservationFlagging) {
  Prediction p = MakePrediction({0.99, 0.01}, 5000);
  EXPECT_GT(ErrorConfidence(p, -1, 0.95, /*flag_nulls=*/true), 0.9);
  EXPECT_DOUBLE_EQ(ErrorConfidence(p, -1, 0.95, /*flag_nulls=*/false), 0.0);
}

TEST(ErrorConfidenceTest, MatchesDefinitionFormula) {
  Prediction p = MakePrediction({0.9, 0.1}, 500);
  const double expected =
      LeftBound(0.9, 500, 0.95) - RightBound(0.1, 500, 0.95);
  EXPECT_NEAR(ErrorConfidence(p, 1, 0.95), expected, 1e-12);
}

TEST(ErrorConfidenceTest, QuisHeadlineRuleConfidence) {
  // Sec. 6.2: 16118 instances, one deviation -> confidence 99.95%. With
  // Wilson bounds we land in the same regime (>= 99.8%).
  const double n = 16118;
  Prediction p = MakePrediction({(n - 1) / n, 1.0 / n, 0.0}, n);
  const double conf = ErrorConfidence(p, 1, 0.95);
  EXPECT_GT(conf, 0.998);
  EXPECT_LT(conf, 1.0);
}

TEST(ErrorConfidenceTest, CombineTakesMaximum) {
  EXPECT_DOUBLE_EQ(CombineErrorConfidences({0.2, 0.9, 0.5}), 0.9);
  EXPECT_DOUBLE_EQ(CombineErrorConfidences({}), 0.0);
}

// --- Auditor end-to-end on planted errors ------------------------------------------

Schema AuditSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", {"w0", "w1", "w2", "w3"}).ok());
  return s;
}

/// Y deterministically mirrors X; W random. Plants `errors` deviating
/// records at the front.
Table PlantedTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = AuditSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;  // deviation
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(AuditorTest, FlagsPlantedDeviations) {
  Table t = PlantedTable(3000, 5, 40);
  Auditor auditor;  // defaults: C4.5, minConf 0.8
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok()) << model.status();
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  // All five planted deviations flagged...
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(report->IsFlagged(r)) << "planted row " << r;
  }
  // ...and very few others (specificity ~1).
  EXPECT_LE(report->NumFlagged(), 10u);
}

TEST(AuditorTest, RankingPutsStrongestFirst) {
  Table t = PlantedTable(3000, 3, 41);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->suspicious.size(), 2u);
  for (size_t i = 1; i < report->suspicious.size(); ++i) {
    EXPECT_GE(report->suspicious[i - 1].error_confidence,
              report->suspicious[i].error_confidence);
  }
}

TEST(AuditorTest, SuggestionsProposeTheConsistentValue) {
  Table t = PlantedTable(3000, 4, 42);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  for (const Suspicion& sus : report->suspicious) {
    if (sus.row >= 4) continue;  // only check planted rows
    // The X<->Y dependency is symmetric, so the tool may blame either side
    // ("a difference between an observed and predicted value sometimes lays
    // in erroneous base attribute values", sec. 5.3). Either way the
    // suggestion restores consistency Y == X.
    ASSERT_TRUE(sus.attr == 0 || sus.attr == 1) << sus.attr;
    ASSERT_TRUE(sus.suggestion.is_nominal());
    const int other = sus.attr == 0 ? 1 : 0;
    EXPECT_EQ(sus.suggestion.nominal_code(),
              t.cell(sus.row, static_cast<size_t>(other)).nominal_code());
  }
}

TEST(AuditorTest, ApplyCorrectionsRepairsFlaggedCells) {
  Table t = PlantedTable(3000, 4, 43);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  auto corrected = auditor.ApplyCorrections(*report, t);
  ASSERT_TRUE(corrected.ok());
  for (size_t r = 0; r < 4; ++r) {
    if (!report->IsFlagged(r)) continue;
    EXPECT_EQ(corrected->cell(r, 1).nominal_code(),
              corrected->cell(r, 0).nominal_code());
  }
  // Unflagged rows untouched.
  for (size_t r = 4; r < t.num_rows(); ++r) {
    if (report->IsFlagged(r)) continue;
    EXPECT_TRUE(corrected->cell(r, 1).StrictEquals(t.cell(r, 1)));
  }
}

TEST(AuditorTest, MinConfidenceControlsFlagVolume) {
  Table t = PlantedTable(2000, 10, 44);
  AuditorConfig strict;
  strict.min_error_confidence = 0.95;
  AuditorConfig lax;
  lax.min_error_confidence = 0.3;
  auto strict_model = Auditor(strict).Induce(t);
  auto lax_model = Auditor(lax).Induce(t);
  ASSERT_TRUE(strict_model.ok());
  ASSERT_TRUE(lax_model.ok());
  auto strict_report = Auditor(strict).Audit(*strict_model, t);
  auto lax_report = Auditor(lax).Audit(*lax_model, t);
  ASSERT_TRUE(strict_report.ok());
  ASSERT_TRUE(lax_report.ok());
  EXPECT_LE(strict_report->NumFlagged(), lax_report->NumFlagged());
}

TEST(AuditorTest, SkipClassAttributesRespected) {
  Table t = PlantedTable(1000, 0, 45);
  AuditorConfig cfg;
  cfg.skip_class_attrs = {1};
  auto model = Auditor(cfg).Induce(t);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->ModelFor(1), nullptr);
  EXPECT_NE(model->ModelFor(0), nullptr);
}

TEST(AuditorTest, ExcludedBaseAttrsRespected) {
  Table t = PlantedTable(1000, 0, 46);
  AuditorConfig cfg;
  cfg.excluded_base_attrs = {{1, 0}};  // Y's classifier may not use X
  auto model = Auditor(cfg).Induce(t);
  ASSERT_TRUE(model.ok());
  const AttributeModel* ym = model->ModelFor(1);
  ASSERT_NE(ym, nullptr);
  const auto splits_on_x = [](const AttributeModel& m) {
    return std::any_of(m.tree.nodes().begin(), m.tree.nodes().end(),
                       [](const CompiledTree::Node& n) { return n.attr == 0; });
  };
  EXPECT_FALSE(splits_on_x(*ym));
  // Without the exclusion, Y's tree splits on X.
  auto unrestricted = Auditor().Induce(t);
  ASSERT_TRUE(unrestricted.ok());
  EXPECT_TRUE(splits_on_x(*unrestricted->ModelFor(1)));
}

TEST(AuditorTest, AuditSeparateTestTable) {
  // Structure induction and data checking run asynchronously (sec. 2.2):
  // induce on one table, audit another.
  Table train = PlantedTable(3000, 0, 47);
  Table test = PlantedTable(100, 5, 48);
  Auditor auditor;
  auto model = auditor.Induce(train);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, test);
  ASSERT_TRUE(report.ok());
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(report->IsFlagged(r));
  }
}

TEST(AuditorTest, AllInducerKindsRunEndToEnd) {
  Table t = PlantedTable(1200, 3, 49);
  for (InducerKind kind : {InducerKind::kC45, InducerKind::kNaiveBayes,
                           InducerKind::kKnn, InducerKind::kOneR}) {
    AuditorConfig cfg;
    cfg.inducer = kind;
    Auditor auditor(cfg);
    auto model = auditor.Induce(t);
    ASSERT_TRUE(model.ok()) << InducerKindToString(kind);
    auto report = auditor.Audit(*model, t);
    ASSERT_TRUE(report.ok()) << InducerKindToString(kind);
    EXPECT_EQ(report->flagged.size(), t.num_rows());
  }
}

TEST(AuditorTest, InducedTreesKeepNoPointerIntoTheirTrainingInput) {
  // Induce trains every tree from an encode cache and encoders that die
  // when it returns, and keeps only the compiled tree. The model, saved
  // with its own encoders, must equal a model built from trees trained
  // directly on the same table.
  QuisConfig qcfg;
  qcfg.num_records = 3000;
  qcfg.seed = 7;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  const Table& t = sample->table;
  AuditorConfig cfg;
  cfg.num_threads = 2;
  auto model = Auditor(cfg).Induce(t);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_GT(model->num_models(), 0u);

  const EncodedDataset cache = EncodedDataset::Build(t, cfg.numeric_class_bins);
  C45Config tree_cfg = cfg.c45;
  tree_cfg.min_error_confidence = cfg.min_error_confidence;
  tree_cfg.confidence_level = cfg.confidence_level;
  AuditModel direct_model;
  for (const AttributeModel& am : model->models()) {
    ASSERT_EQ(am.classifier, nullptr);
    std::vector<int> base;
    for (size_t a = 0; a < t.schema().num_attributes(); ++a) {
      if (static_cast<int>(a) != am.class_attr) {
        base.push_back(static_cast<int>(a));
      }
    }
    C45Tree direct(tree_cfg);
    ASSERT_TRUE(direct.Train(TrainingData{&cache, am.class_attr, base}).ok());
    direct_model.AddAttributeModel(
        {am.class_attr,
         *cache.encoder(static_cast<size_t>(am.class_attr)),
         direct.compiled(),
         {}});
  }
  std::ostringstream induced;
  std::ostringstream direct;
  ASSERT_TRUE(model->SerializeTo(&induced).ok());
  ASSERT_TRUE(direct_model.SerializeTo(&direct).ok());
  EXPECT_EQ(induced.str(), direct.str());
}

TEST(AuditorTest, EmptyTableRejected) {
  Schema s = AuditSchema();
  Table t(s);
  Auditor auditor;
  EXPECT_FALSE(auditor.Induce(t).ok());
}

// --- Rule export (sec. 5.4) ----------------------------------------------------------

TEST(RuleExportTest, ExtractsUsefulRules) {
  Table t = PlantedTable(3000, 5, 50);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto rules = ExtractStructureModel(*model, auditor.config(),
                                     /*drop_useless=*/true);
  EXPECT_FALSE(rules.empty());
  for (const StructureRule& rule : rules) {
    EXPECT_GT(rule.expected_error_confidence, 0.0);
    EXPECT_GT(rule.support, 0.0);
    EXPECT_GE(rule.purity, 0.0);
    EXPECT_LE(rule.purity, 1.0);
  }
}

TEST(RuleExportTest, DropUselessReducesRuleCount) {
  Table t = PlantedTable(3000, 5, 51);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto all = ExtractStructureModel(*model, auditor.config(),
                                   /*drop_useless=*/false);
  auto useful = ExtractStructureModel(*model, auditor.config(),
                                      /*drop_useless=*/true);
  EXPECT_LE(useful.size(), all.size());
  EXPECT_FALSE(all.empty());
}

TEST(RuleExportTest, RenderedModelMentionsDependency) {
  Table t = PlantedTable(3000, 5, 52);
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  const std::string rendered =
      RenderStructureModel(*model, t.schema(), auditor.config());
  // The Y classifier learned rules conditioned on X.
  EXPECT_NE(rendered.find("X = "), std::string::npos);
  EXPECT_NE(rendered.find("-> Y"), std::string::npos);
}

TEST(RuleExportTest, NonTreeClassifierYieldsNoRules) {
  Table t = PlantedTable(500, 0, 53);
  AuditorConfig cfg;
  cfg.inducer = InducerKind::kNaiveBayes;
  auto model = Auditor(cfg).Induce(t);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(ExtractStructureModel(*model, cfg).empty());
}

}  // namespace
}  // namespace dq
