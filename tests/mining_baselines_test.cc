// Tests for the alternative inducers of sec. 5: naive Bayes, instance-based
// (k-NN) and the OneR classification-rule inducer. All must honour the
// Classifier contract: a class distribution plus the supporting instance
// count, so they plug into the error-confidence framework.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "mining/encoded_dataset.h"
#include "mining/knn.h"
#include "mining/naive_bayes.h"
#include "mining/oner.h"

namespace dq {
namespace {

Schema BaselineSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// CLS = X deterministic; Z random noise.
Table DependentTable(size_t rows, uint64_t seed, double noise = 0.0) {
  Schema s = BaselineSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t cls = x;
    if (noise > 0 && rng.Bernoulli(noise)) {
      cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    }
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Numeric(rng.UniformReal(0, 100));
    row[2] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TrainingData Training(const EncodedDataset& enc) {
  return TrainingData{&enc, 2, {0, 1}};
}

template <typename T>
class BaselineClassifierTest : public testing::Test {
 public:
  std::unique_ptr<Classifier> Make() { return std::make_unique<T>(); }
};

using BaselineTypes =
    testing::Types<NaiveBayesClassifier, KnnClassifier, OneRClassifier>;
TYPED_TEST_SUITE(BaselineClassifierTest, BaselineTypes);

TYPED_TEST(BaselineClassifierTest, LearnsDeterministicDependency) {
  Table t = DependentTable(600, 21);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  auto clf = this->Make();
  ASSERT_TRUE(clf->Train(Training(enc)).ok());
  for (int32_t x = 0; x < 3; ++x) {
    Row probe(3);
    probe[0] = Value::Nominal(x);
    probe[1] = Value::Numeric(50.0);
    Prediction p = clf->Predict(probe);
    EXPECT_EQ(p.PredictedClass(), x) << clf->name();
    EXPECT_GT(p.support, 0.0);
  }
}

TYPED_TEST(BaselineClassifierTest, DistributionSumsToOne) {
  Table t = DependentTable(400, 22, 0.3);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  auto clf = this->Make();
  ASSERT_TRUE(clf->Train(Training(enc)).ok());
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    Row probe(3);
    probe[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    probe[1] = Value::Numeric(rng.UniformReal(0, 100));
    Prediction p = clf->Predict(probe);
    double total = 0.0;
    for (double v : p.distribution) total += v;
    EXPECT_NEAR(total, 1.0, 1e-6) << clf->name();
  }
}

TYPED_TEST(BaselineClassifierTest, HandlesMissingBaseValues) {
  Table t = DependentTable(400, 24);
  Rng rng(25);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (rng.Bernoulli(0.2)) t.SetCell(r, 0, Value::Null());
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  auto clf = this->Make();
  ASSERT_TRUE(clf->Train(Training(enc)).ok());
  Row probe(3);  // all nulls
  Prediction p = clf->Predict(probe);
  double total = 0.0;
  for (double v : p.distribution) total += v;
  EXPECT_NEAR(total, 1.0, 1e-6) << clf->name();
}

TYPED_TEST(BaselineClassifierTest, FailsWithoutTrainableInstances) {
  Table t = DependentTable(50, 26);
  for (size_t r = 0; r < t.num_rows(); ++r) t.SetCell(r, 2, Value::Null());
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  auto clf = this->Make();
  EXPECT_FALSE(clf->Train(Training(enc)).ok()) << clf->name();
}

// --- NaiveBayes specifics --------------------------------------------------------

TEST(NaiveBayesTest, GaussianLikelihoodSeparatesNumericClasses) {
  // Class determined by Z (low/high), X is noise.
  Schema s = BaselineSchema();
  Table t(s);
  Rng rng(27);
  for (int i = 0; i < 1000; ++i) {
    const bool high = rng.Bernoulli(0.5);
    Row row(3);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Numeric(high ? rng.Normal(80, 5) : rng.Normal(20, 5));
    row[2] = Value::Nominal(high ? 1 : 0);
    if (!row[1].is_null()) {
      const double z = row[1].numeric();
      row[1] = Value::Numeric(std::clamp(z, 0.0, 100.0));
    }
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Train(Training(enc)).ok());
  Row low(3), high(3);
  low[1] = Value::Numeric(15.0);
  high[1] = Value::Numeric(85.0);
  EXPECT_EQ(nb.Predict(low).PredictedClass(), 0);
  EXPECT_EQ(nb.Predict(high).PredictedClass(), 1);
}

TEST(NaiveBayesTest, LaplaceSmoothingAvoidsZeroPosterior) {
  Table t = DependentTable(100, 28);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Train(Training(enc)).ok());
  Row probe(3);
  probe[0] = Value::Nominal(0);
  Prediction p = nb.Predict(probe);
  for (double v : p.distribution) EXPECT_GT(v, 0.0);
}

// --- KNN specifics ------------------------------------------------------------------

TEST(KnnTest, SupportEqualsK) {
  Table t = DependentTable(500, 29);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  KnnConfig cfg;
  cfg.k = 15;
  KnnClassifier knn(cfg);
  ASSERT_TRUE(knn.Train(Training(enc)).ok());
  Row probe(3);
  probe[0] = Value::Nominal(1);
  probe[1] = Value::Numeric(50.0);
  EXPECT_DOUBLE_EQ(knn.Predict(probe).support, 15.0);
}

TEST(KnnTest, SubsamplingCapsTrainingSet) {
  Table t = DependentTable(2000, 30);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  KnnConfig cfg;
  cfg.max_training_instances = 100;
  cfg.k = 5;
  KnnClassifier knn(cfg);
  ASSERT_TRUE(knn.Train(Training(enc)).ok());
  // Still learns the dominant dependency from the subsample.
  Row probe(3);
  probe[0] = Value::Nominal(2);
  probe[1] = Value::Numeric(50.0);
  EXPECT_EQ(knn.Predict(probe).PredictedClass(), 2);
}

TEST(KnnTest, RejectsInvalidK) {
  Table t = DependentTable(50, 31);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  KnnConfig cfg;
  cfg.k = 0;
  KnnClassifier knn(cfg);
  EXPECT_FALSE(knn.Train(Training(enc)).ok());
}

// --- OneR specifics -----------------------------------------------------------------

TEST(OneRTest, PicksTheInformativeAttribute) {
  Table t = DependentTable(800, 32);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  OneRClassifier oner;
  ASSERT_TRUE(oner.Train(Training(enc)).ok());
  EXPECT_EQ(oner.chosen_attr(), 0);  // X determines the class
}

TEST(OneRTest, SupportIsBucketCount) {
  Table t = DependentTable(900, 33);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  OneRClassifier oner;
  ASSERT_TRUE(oner.Train(Training(enc)).ok());
  Row probe(3);
  probe[0] = Value::Nominal(0);
  const Prediction p = oner.Predict(probe);
  EXPECT_GT(p.support, 200.0);  // ~1/3 of 900
  EXPECT_LT(p.support, 400.0);
}

TEST(OneRTest, NumericAttributeDiscretized) {
  // Class depends on Z only.
  Schema s = BaselineSchema();
  Table t(s);
  Rng rng(34);
  for (int i = 0; i < 800; ++i) {
    const double z = rng.UniformReal(0, 100);
    Row row(3);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Numeric(z);
    row[2] = Value::Nominal(z < 50.0 ? 0 : 1);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  OneRClassifier oner;
  ASSERT_TRUE(oner.Train(Training(enc)).ok());
  EXPECT_EQ(oner.chosen_attr(), 1);
  Row probe(3);
  probe[1] = Value::Numeric(10.0);
  EXPECT_EQ(oner.Predict(probe).PredictedClass(), 0);
  probe[1] = Value::Numeric(90.0);
  EXPECT_EQ(oner.Predict(probe).PredictedClass(), 1);
}

TEST(OneRTest, NullBucketFallsBackGracefully) {
  Table t = DependentTable(200, 35);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  OneRClassifier oner;
  ASSERT_TRUE(oner.Train(Training(enc)).ok());
  Row probe(3);  // X null -> null bucket (empty) -> overall distribution
  Prediction p = oner.Predict(probe);
  EXPECT_GT(p.support, 0.0);
}

}  // namespace
}  // namespace dq
