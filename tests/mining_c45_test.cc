// Tests for the C4.5 implementation (sec. 5.1) and its data-auditing
// adjustments (sec. 5.4).

#include <gtest/gtest.h>

#include "common/random.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "stats/confidence.h"

namespace dq {
namespace {

Schema MiningSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2", "y3"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// Deterministic dependency: CLS = class_of(X), with optional noise and
/// irrelevant attributes Y (random) and Z (random).
Table MakeDependentTable(size_t rows, double noise, uint64_t seed) {
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t cls = x;  // identity dependency
    if (noise > 0 && rng.Bernoulli(noise)) {
      cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    }
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    row[2] = Value::Numeric(rng.UniformReal(0, 100));
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TrainingData MakeTraining(const EncodedDataset& enc,
                          std::vector<int> base = {0, 1, 2}) {
  return TrainingData{&enc, 3, std::move(base)};
}

// --- minInst derivation ---------------------------------------------------------

TEST(MinInstTest, MatchesClosedFormWilson) {
  // Pure-leaf errorConf with Wilson bounds is (n - z^2) / (n + z^2); at 95%
  // and minConf 0.8, the smallest integer n is ceil(9 z^2) = 35.
  const double z = ZForConfidence(0.95);
  const double expected = std::ceil(9.0 * z * z);
  EXPECT_DOUBLE_EQ(MinInstForConfidence(0.8, 0.95), expected);
}

TEST(MinInstTest, ZeroConfidenceNeedsOneInstance) {
  EXPECT_DOUBLE_EQ(MinInstForConfidence(0.0, 0.95), 1.0);
}

TEST(MinInstTest, MonotoneInConfidence) {
  EXPECT_LT(MinInstForConfidence(0.5, 0.95), MinInstForConfidence(0.9, 0.95));
  EXPECT_LT(MinInstForConfidence(0.9, 0.95), MinInstForConfidence(0.99, 0.95));
}

// --- Training and prediction -------------------------------------------------------

TEST(C45Test, LearnsDeterministicDependency) {
  Table t = MakeDependentTable(1000, 0.0, 1);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());

  // Every X value predicts its class with certainty.
  for (int32_t x = 0; x < 3; ++x) {
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(0);
    row[2] = Value::Numeric(50.0);
    Prediction p = tree.Predict(row);
    EXPECT_EQ(p.PredictedClass(), x);
    EXPECT_GT(p.ProbabilityOf(x), 0.99);
    EXPECT_GT(p.support, 100.0);
  }
}

TEST(C45Test, SplitsOnTheInformativeAttribute) {
  Table t = MakeDependentTable(2000, 0.05, 2);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Config cfg;
  cfg.min_error_confidence = 0.8;
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  // The tree must use X (attr 0) at the root: all three leaves exist.
  EXPECT_GE(tree.LeafCount(), 3u);
  std::string dump = tree.ToString(t.schema(), *enc.encoder(3));
  EXPECT_NE(dump.find("X ="), std::string::npos);
}

TEST(C45Test, PureClassYieldsSingleLeaf) {
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Row row(4);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Nominal(0);
    row[2] = Value::Numeric(1.0);
    row[3] = Value::Nominal(1);  // constant class
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
  Row probe(4);
  probe[0] = Value::Nominal(0);
  EXPECT_EQ(tree.Predict(probe).PredictedClass(), 1);
}

TEST(C45Test, NumericThresholdSplit) {
  // Class depends on Z <= 50.
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double z = rng.UniformReal(0, 100);
    Row row(4);
    row[0] = Value::Nominal(0);
    row[1] = Value::Nominal(0);
    row[2] = Value::Numeric(z);
    row[3] = Value::Nominal(z <= 50.0 ? 0 : 1);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  Row low(4), high(4);
  low[2] = Value::Numeric(10.0);
  high[2] = Value::Numeric(90.0);
  EXPECT_EQ(tree.Predict(low).PredictedClass(), 0);
  EXPECT_EQ(tree.Predict(high).PredictedClass(), 1);
}

TEST(C45Test, MissingBaseValuesDistributed) {
  Table t = MakeDependentTable(800, 0.0, 5);
  // Null out X on 20% of the rows.
  Rng rng(6);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (rng.Bernoulli(0.2)) t.SetCell(r, 0, Value::Null());
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  // Prediction with missing X returns a blended distribution over classes.
  Row probe(4);
  Prediction p = tree.Predict(probe);
  EXPECT_GT(p.support, 0.0);
  double total = 0.0;
  int nonzero = 0;
  for (double v : p.distribution) {
    total += v;
    if (v > 0.01) ++nonzero;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(nonzero, 2);
}

TEST(C45Test, NullClassInstancesIgnored) {
  Table t = MakeDependentTable(300, 0.0, 7);
  for (size_t r = 0; r < 100; ++r) t.SetCell(r, 3, Value::Null());
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  Row probe(4);
  probe[0] = Value::Nominal(1);
  EXPECT_EQ(tree.Predict(probe).PredictedClass(), 1);
}

TEST(C45Test, TrainFailsOnAllNullClass) {
  Table t = MakeDependentTable(50, 0.0, 8);
  for (size_t r = 0; r < t.num_rows(); ++r) t.SetCell(r, 3, Value::Null());
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  EXPECT_FALSE(tree.Train(MakeTraining(enc)).ok());
}

TEST(C45Test, TrainingDataValidation) {
  Table t = MakeDependentTable(50, 0.0, 9);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  TrainingData td = MakeTraining(enc);
  td.base_attrs = {3};  // class attribute as base attribute
  EXPECT_FALSE(tree.Train(td).ok());
  td = MakeTraining(enc);
  td.base_attrs = {};
  EXPECT_FALSE(tree.Train(td).ok());
  td = MakeTraining(enc);
  td.class_attr = 4;  // no such attribute
  EXPECT_EQ(tree.Train(td).code(), StatusCode::kOutOfRange);
  td = MakeTraining(enc);
  td.encoded = nullptr;  // no cache to read the table from
  EXPECT_TRUE(tree.Train(td).IsInvalidArgument());

  // An all-null ordered attribute has no fitted class encoder, so it
  // cannot be the class attribute.
  for (size_t r = 0; r < t.num_rows(); ++r) t.SetCell(r, 2, Value::Null());
  const EncodedDataset no_z = EncodedDataset::Build(t, 8);
  ASSERT_FALSE(no_z.encoder(2).has_value());
  td = TrainingData{&no_z, 2, {0, 1}};
  EXPECT_EQ(tree.Train(td).code(), StatusCode::kFailedPrecondition);
}

// --- Pruning behaviour -------------------------------------------------------------

TEST(C45PruningTest, ExpErrorConfPruningCollapsesNoiseMemorization) {
  // Class almost constant (5% noise) with unrelated base attributes: the
  // Def. 9 strategy must not grow a tree that memorizes noise.
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    Row row(4);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    row[2] = Value::Numeric(rng.UniformReal(0, 100));
    row[3] = Value::Nominal(rng.Bernoulli(0.05)
                                ? static_cast<int32_t>(rng.UniformInt(1, 2))
                                : 0);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Config cfg;
  cfg.pruning = PruningMode::kExpectedErrorConfidence;
  cfg.min_error_confidence = 0.8;
  C45Tree pruned(cfg);
  ASSERT_TRUE(pruned.Train(MakeTraining(enc)).ok());

  C45Config none = cfg;
  none.pruning = PruningMode::kNone;
  none.min_error_confidence = 0.0;
  C45Tree unpruned(none);
  ASSERT_TRUE(unpruned.Train(MakeTraining(enc)).ok());

  EXPECT_LT(pruned.NodeCount(), unpruned.NodeCount());
  EXPECT_LE(pruned.NodeCount(), 5u);
}

TEST(C45PruningTest, ExpErrorConfPruningKeepsRealStructure) {
  // With a genuine dependency plus noise, the split must survive Def. 9
  // pruning: the children flag deviations far above the minimum confidence.
  Table t = MakeDependentTable(3000, 0.02, 11);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Config cfg;
  cfg.pruning = PruningMode::kExpectedErrorConfidence;
  cfg.min_error_confidence = 0.8;
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  EXPECT_GT(tree.NodeCount(), 1u);
  Row probe(4);
  probe[0] = Value::Nominal(2);
  EXPECT_EQ(tree.Predict(probe).PredictedClass(), 2);
}

TEST(C45PruningTest, PessimisticPruningShrinksTree) {
  Table t = MakeDependentTable(1500, 0.15, 12);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Config none;
  none.pruning = PruningMode::kNone;
  C45Tree unpruned(none);
  ASSERT_TRUE(unpruned.Train(MakeTraining(enc)).ok());
  C45Config pess;
  pess.pruning = PruningMode::kPessimistic;
  C45Tree pruned(pess);
  ASSERT_TRUE(pruned.Train(MakeTraining(enc)).ok());
  EXPECT_LE(pruned.NodeCount(), unpruned.NodeCount());
}

TEST(C45PruningTest, MinInstPrePruningLimitsDepthOnSmallData) {
  // 60 records cannot host two leaves with 35 single-class instances each,
  // so with minConf 0.8 the tree must stay very small.
  Table t = MakeDependentTable(60, 0.0, 13);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Config cfg;
  cfg.min_error_confidence = 0.8;
  cfg.pruning = PruningMode::kExpectedErrorConfidence;
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
}

// --- Path extraction -----------------------------------------------------------------

TEST(C45Test, VisitPathsCoversAllLeaves) {
  Table t = MakeDependentTable(1000, 0.02, 14);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  size_t leaves = 0;
  double weight = 0.0;
  tree.VisitPaths([&](const std::vector<SplitCondition>& conds,
                      const LeafInfo& leaf) {
    ++leaves;
    weight += leaf.weight;
    for (const SplitCondition& c : conds) {
      EXPECT_GE(c.attr, 0);
    }
  });
  EXPECT_EQ(leaves, tree.LeafCount());
  EXPECT_NEAR(weight, 1000.0, 1e-6);
}

TEST(C45Test, SplitConditionToString) {
  Schema s = MiningSchema();
  SplitCondition cat;
  cat.attr = 0;
  cat.kind = SplitCondition::Kind::kCategory;
  cat.category = 1;
  EXPECT_EQ(cat.ToString(s), "X = x1");
  SplitCondition num;
  num.attr = 2;
  num.kind = SplitCondition::Kind::kLessEq;
  num.threshold = 12.5;
  EXPECT_EQ(num.ToString(s), "Z <= 12.5");
}

TEST(C45Test, GainRatioAvoidsManyValuedAttributeBias) {
  // Y has 4 random values, X has 3 and determines the class; ID3-style
  // plain gain could still pick X here, but the point is that gain ratio
  // never picks the *random* many-valued attribute for the root.
  Table t = MakeDependentTable(2000, 0.0, 15);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  std::string dump = tree.ToString(t.schema(), *enc.encoder(3));
  // Root splits on X, not on Y.
  EXPECT_EQ(dump.rfind("X =", 0), 0u);
}

TEST(C45Test, PredictionDistributionNormalized) {
  Table t = MakeDependentTable(500, 0.2, 16);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  C45Tree tree;
  ASSERT_TRUE(tree.Train(MakeTraining(enc)).ok());
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    Row probe(4);
    probe[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    probe[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    probe[2] = Value::Numeric(rng.UniformReal(0, 100));
    Prediction p = tree.Predict(probe);
    double total = 0.0;
    for (double v : p.distribution) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// --- Regression via discretized class ----------------------------------------------

TEST(C45RegressionTest, NumericClassThroughEqualFrequencyBins) {
  // Z is the class; Z strongly depends on X. The encoder discretizes Z.
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(18);
  for (int i = 0; i < 1500; ++i) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(0);
    row[2] = Value::Numeric(30.0 * x + rng.UniformReal(0, 5));
    row[3] = Value::Nominal(0);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset cache = EncodedDataset::Build(t, 3);  // Z: 3 bins
  const ClassEncoder* enc = &*cache.encoder(2);
  EXPECT_TRUE(enc->is_discretized());
  const TrainingData td{&cache, 2, {0, 1}};
  C45Tree tree;
  ASSERT_TRUE(tree.Train(td).ok());
  // x=0 predicts the low bin; its representative decodes near [0, 5].
  Row probe(4);
  probe[0] = Value::Nominal(0);
  Prediction p = tree.Predict(probe);
  Value rep = enc->Representative(p.PredictedClass());
  ASSERT_TRUE(rep.is_numeric());
  EXPECT_LT(rep.numeric(), 10.0);
  probe[0] = Value::Nominal(2);
  rep = enc->Representative(tree.Predict(probe).PredictedClass());
  EXPECT_GT(rep.numeric(), 55.0);
}

}  // namespace
}  // namespace dq
