// Hand-verified quantitative tests: confidence bounds against published
// values, C4.5 split selection against hand-computed gains, Def. 7/9
// arithmetic on controlled inputs, and generator selectivity properties.

#include <gtest/gtest.h>

#include <cmath>

#include "audit/error_confidence.h"
#include "common/random.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "tdg/rule_generator.h"

namespace dq {
namespace {

// --- Wilson intervals against textbook values -------------------------------------

TEST(QuantConfidenceTest, WilsonTextbookExample) {
  // Classic example: 30 successes out of 100 at 95% -> (0.2189, 0.3958).
  Interval iv = WilsonInterval(0.30, 100, 0.95);
  EXPECT_NEAR(iv.left, 0.2189, 5e-4);
  EXPECT_NEAR(iv.right, 0.3958, 5e-4);
}

TEST(QuantConfidenceTest, WilsonSmallSampleExample) {
  // 1 success out of 10 at 95% -> (0.0179, 0.4041).
  Interval iv = WilsonInterval(0.10, 10, 0.95);
  EXPECT_NEAR(iv.left, 0.0179, 5e-4);
  EXPECT_NEAR(iv.right, 0.4041, 5e-4);
}

TEST(QuantConfidenceTest, WilsonAtFullSuccess) {
  // 20/20 at 95%: left bound = n/(n+z^2) = 20/23.8415 = 0.8389.
  Interval iv = WilsonInterval(1.0, 20, 0.95);
  EXPECT_NEAR(iv.left, 0.8389, 5e-4);
  EXPECT_DOUBLE_EQ(iv.right, 1.0);
}

TEST(QuantConfidenceTest, C45AddErrsMatchesNormalApproximation) {
  // Independent recomputation of the continuity-corrected normal upper
  // bound used by AddErrs for e >= 1: N=14, e=5, CF=0.25.
  const double n = 14, e = 5, cf = 0.25;
  const double z = NormalQuantile(1.0 - cf);
  const double f = (e + 0.5) / n;
  const double r =
      (f + z * z / (2 * n) +
       z * std::sqrt(f / n - f * f / n + z * z / (4 * n * n))) /
      (1.0 + z * z / n);
  EXPECT_NEAR(C45AddErrs(n, e, cf), r * n - e, 1e-12);
  EXPECT_NEAR(C45AddErrs(n, e, cf), 1.7611, 1e-4);  // regression anchor
  // Zero-error base case: N=2 -> 2*(1-0.25^(1/2)) = 1.0.
  EXPECT_NEAR(C45AddErrs(2, 0, 0.25), 2.0 * (1.0 - std::sqrt(0.25)), 1e-12);
}

// --- Def. 7 arithmetic ----------------------------------------------------------------

TEST(QuantErrorConfidenceTest, HandComputedValue) {
  // P = (0.9, 0.1), n = 400, level 95%:
  // leftBound(0.9) = Wilson lower, rightBound(0.1) = Wilson upper.
  Prediction p;
  p.distribution = {0.9, 0.1};
  p.support = 400;
  const double expected =
      WilsonInterval(0.9, 400, 0.95).left - WilsonInterval(0.1, 400, 0.95).right;
  EXPECT_NEAR(ErrorConfidence(p, 1, 0.95), expected, 1e-12);
  // Manual Wilson arithmetic: center/halfwidth form.
  const double z = ZForConfidence(0.95);
  auto wilson_left = [&](double ph, double n) {
    const double denom = 1 + z * z / n;
    const double center = (ph + z * z / (2 * n)) / denom;
    const double half =
        z * std::sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom;
    return center - half;
  };
  EXPECT_NEAR(WilsonInterval(0.9, 400, 0.95).left, wilson_left(0.9, 400),
              1e-12);
}

TEST(QuantErrorConfidenceTest, MonotoneInPredictedProbability) {
  // Fixing the observed class probability, a stronger majority means a
  // stronger deviation signal.
  double prev = -1.0;
  for (double p_pred : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    Prediction p;
    p.distribution = {p_pred, 0.1, 0.9 - p_pred};
    p.support = 1000;
    const double conf = ErrorConfidence(p, 1, 0.95);
    EXPECT_GE(conf, prev);
    prev = conf;
  }
}

TEST(QuantErrorConfidenceTest, AntitoneInObservedProbability) {
  double prev = 2.0;
  for (double p_obs : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    Prediction p;
    p.distribution = {0.65, p_obs, 0.35 - p_obs};
    p.support = 1000;
    const double conf = ErrorConfidence(p, 1, 0.95);
    EXPECT_LE(conf, prev);
    prev = conf;
  }
}

// --- C4.5 split selection against hand-computed gains -----------------------------

TEST(QuantC45Test, PicksHigherInformationGainAttribute) {
  // 400 rows; attribute X determines CLS perfectly (gain = 1 bit),
  // attribute Y agrees with CLS only 75% of the time (gain ~= 0.189 bit).
  // Both are binary, so gain ratio ranks them the same way; the root must
  // split on X.
  Schema s;
  ASSERT_TRUE(s.AddNominal("X", {"x0", "x1"}).ok());
  ASSERT_TRUE(s.AddNominal("Y", {"y0", "y1"}).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"c0", "c1"}).ok());
  Table t(s);
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const int32_t cls = static_cast<int32_t>(rng.UniformInt(0, 1));
    const int32_t y =
        rng.Bernoulli(0.75) ? cls : (1 - cls);
    t.AppendRowUnchecked(
        {Value::Nominal(cls), Value::Nominal(y), Value::Nominal(cls)});
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 4);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Tree tree;
  ASSERT_TRUE(tree.Train(td).ok());
  const std::string dump = tree.ToString(s, *enc.encoder(2));
  EXPECT_EQ(dump.rfind("X =", 0), 0u) << dump;
}

TEST(QuantC45Test, LeafExpectedErrorConfidenceMatchesFormula) {
  // One deterministic split; the impure leaf's Def. 9 value must equal
  // sum_c freq_c * truncated errorConf(P, c).
  Schema s;
  ASSERT_TRUE(s.AddNominal("X", {"x0", "x1"}).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"c0", "c1"}).ok());
  Table t(s);
  // X=x0: 990 c0 + 10 c1 (the deviations); X=x1: 1000 c1.
  for (int i = 0; i < 990; ++i) {
    t.AppendRowUnchecked({Value::Nominal(0), Value::Nominal(0)});
  }
  for (int i = 0; i < 10; ++i) {
    t.AppendRowUnchecked({Value::Nominal(0), Value::Nominal(1)});
  }
  for (int i = 0; i < 1000; ++i) {
    t.AppendRowUnchecked({Value::Nominal(1), Value::Nominal(1)});
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 4);
  const TrainingData td{&enc, 1, {0}};
  C45Config cfg;
  cfg.min_error_confidence = 0.8;
  cfg.confidence_level = 0.95;
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(td).ok());

  bool found_impure = false;
  tree.VisitPaths([&](const std::vector<SplitCondition>& conds,
                      const LeafInfo& leaf) {
    if (conds.size() == 1 && conds[0].category == 0) {
      found_impure = true;
      ASSERT_EQ(leaf.weight, 1000.0);
      const double conf_minority =
          LeftBound(0.99, 1000, 0.95) - RightBound(0.01, 1000, 0.95);
      ASSERT_GE(conf_minority, 0.8);  // above the truncation threshold
      const double expected = 10.0 / 1000.0 * conf_minority;
      EXPECT_NEAR(leaf.expected_error_confidence, expected, 1e-9);
    }
  });
  EXPECT_TRUE(found_impure);
}

TEST(QuantC45Test, MinorityDeviationConfidenceMatchesQuisRegime) {
  // The sec. 6.2 arithmetic: a 16118-instance leaf with one deviation
  // yields errorConf ~= 0.999+ at the 95% level.
  Prediction p;
  const double n = 16118;
  p.distribution = {(n - 1) / n, 1.0 / n};
  p.support = n;
  const double conf = ErrorConfidence(p, 1, 0.95);
  EXPECT_GT(conf, 0.998);
  // And the 9530-instance, 96%-pure slice yields ~0.9 (the paper's 92%).
  Prediction q;
  q.distribution = {0.958, 0.042};
  q.support = 9530;
  const double conf2 = ErrorConfidence(q, 1, 0.95);
  EXPECT_GT(conf2, 0.88);
  EXPECT_LT(conf2, 0.94);
}

// --- Generator selectivity property -------------------------------------------------

TEST(QuantRuleGeneratorTest, PremiseSelectivityStaysInsideWindow) {
  Schema s;
  std::vector<std::string> cats;
  for (int i = 0; i < 30; ++i) cats.push_back("v" + std::to_string(i));
  ASSERT_TRUE(s.AddNominal("A", cats).ok());
  ASSERT_TRUE(s.AddNominal("B", cats).ok());
  ASSERT_TRUE(s.AddNominal("C", cats).ok());
  ASSERT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());

  RuleGenConfig cfg;
  cfg.num_rules = 20;
  cfg.min_premise_selectivity = 0.01;
  cfg.max_premise_selectivity = 0.10;
  cfg.seed = 3;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok()) << rules.status();

  // Measure the actual premise frequency on an independent uniform sample.
  Rng rng(99);
  std::vector<Row> sample;
  for (int i = 0; i < 4000; ++i) {
    Row row(4);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 29)));
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 29)));
    row[2] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 29)));
    row[3] = Value::Numeric(rng.UniformReal(0, 100));
    sample.push_back(std::move(row));
  }
  for (const Rule& rule : *rules) {
    size_t hits = 0;
    for (const Row& row : sample) {
      if (rule.premise.Evaluate(row)) ++hits;
    }
    const double measured = static_cast<double>(hits) / static_cast<double>(sample.size());
    // Monte-Carlo slack around the configured window.
    EXPECT_LE(measured, 0.16) << rule.ToString(s);
  }
}

}  // namespace
}  // namespace dq
