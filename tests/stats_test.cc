// Unit tests for src/stats: confidence bounds, distributions, descriptive
// statistics, equal-frequency discretization.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "common/random.h"
#include "midpoint_pairs.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "stats/discretizer.h"
#include "stats/distribution.h"
#include "table/schema.h"

namespace dq {
namespace {

// --- Normal quantile / z values ---------------------------------------------

TEST(ConfidenceTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232, 1e-4);
}

TEST(ConfidenceTest, ZForConfidenceLevels) {
  EXPECT_NEAR(ZForConfidence(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(ZForConfidence(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(ZForConfidence(0.80), 1.281552, 1e-4);
}

// --- Wilson interval ---------------------------------------------------------

TEST(ConfidenceTest, WilsonContainsObservedProportion) {
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (double n : {5.0, 50.0, 5000.0}) {
      Interval iv = WilsonInterval(p, n, 0.95);
      EXPECT_LE(iv.left, p + 1e-12) << "p=" << p << " n=" << n;
      EXPECT_GE(iv.right, p - 1e-12);
      EXPECT_GE(iv.left, 0.0);
      EXPECT_LE(iv.right, 1.0);
    }
  }
}

TEST(ConfidenceTest, WilsonShrinksWithSampleSize) {
  Interval small = WilsonInterval(0.8, 10, 0.95);
  Interval large = WilsonInterval(0.8, 10000, 0.95);
  EXPECT_LT(large.right - large.left, small.right - small.left);
  EXPECT_NEAR(large.left, 0.8, 0.02);
  EXPECT_NEAR(large.right, 0.8, 0.02);
}

TEST(ConfidenceTest, WilsonWidensWithConfidenceLevel) {
  Interval lo = WilsonInterval(0.5, 100, 0.80);
  Interval hi = WilsonInterval(0.5, 100, 0.99);
  EXPECT_LT(lo.right - lo.left, hi.right - hi.left);
}

TEST(ConfidenceTest, ZeroSampleIsVacuous) {
  Interval iv = WilsonInterval(0.5, 0, 0.95);
  EXPECT_DOUBLE_EQ(iv.left, 0.0);
  EXPECT_DOUBLE_EQ(iv.right, 1.0);
}

TEST(ConfidenceTest, ClosedFormAtExtremes) {
  // Wilson at p=1: left = n / (n + z^2).
  const double z = ZForConfidence(0.95);
  const double n = 100;
  EXPECT_NEAR(LeftBound(1.0, n, 0.95), n / (n + z * z), 1e-9);
  EXPECT_NEAR(RightBound(1.0, n, 0.95), 1.0, 1e-12);
  EXPECT_NEAR(RightBound(0.0, n, 0.95), z * z / (n + z * z), 1e-9);
  EXPECT_NEAR(LeftBound(0.0, n, 0.95), 0.0, 1e-12);
}

// --- C4.5 AddErrs -------------------------------------------------------------

TEST(ConfidenceTest, AddErrsZeroErrors) {
  // Classic value: N=6, e=0, CF=0.25 -> 6*(1-0.25^(1/6)) ~= 1.2378.
  EXPECT_NEAR(C45AddErrs(6, 0, 0.25), 6.0 * (1.0 - std::pow(0.25, 1.0 / 6.0)),
              1e-9);
}

TEST(ConfidenceTest, AddErrsMonotoneInN) {
  // Larger leaves get proportionally fewer pessimistic extra errors.
  EXPECT_GT(C45AddErrs(10, 1, 0.25) / 10.0, C45AddErrs(1000, 100, 0.25) / 1000.0);
}

TEST(ConfidenceTest, AddErrsBoundaries) {
  EXPECT_DOUBLE_EQ(C45AddErrs(0, 0, 0.25), 0.0);
  EXPECT_GE(C45AddErrs(5, 4.8, 0.25), 0.0);
  // Errors beyond n are clamped.
  EXPECT_DOUBLE_EQ(C45AddErrs(5, 5, 0.25), 0.0);
}

TEST(ConfidenceTest, PessimisticRateWithinUnitInterval) {
  for (double n : {1.0, 10.0, 1000.0}) {
    for (double e : {0.0, 0.5, 2.0, n / 2}) {
      if (e > n) continue;  // more errors than instances is ill-formed
      const double r = C45PessimisticErrorRate(n, e, 0.25);
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0);
      EXPECT_GE(r, e / n - 1e-9);  // pessimistic: never below observed rate
    }
  }
}

// --- Distributions ------------------------------------------------------------

AttributeDef NominalAttr(int k) {
  AttributeDef def;
  def.name = "n";
  def.type = DataType::kNominal;
  for (int i = 0; i < k; ++i) def.categories.push_back("c" + std::to_string(i));
  return def;
}

AttributeDef NumericAttr(double lo, double hi) {
  AttributeDef def;
  def.name = "x";
  def.type = DataType::kNumeric;
  def.numeric_min = lo;
  def.numeric_max = hi;
  return def;
}

AttributeDef DateAttr(int32_t lo, int32_t hi) {
  AttributeDef def;
  def.name = "d";
  def.type = DataType::kDate;
  def.date_min = lo;
  def.date_max = hi;
  return def;
}

class DistributionDomainTest
    : public testing::TestWithParam<DistributionKind> {};

TEST_P(DistributionDomainTest, SamplesStayInDomain) {
  // Property: every sampled value is null or in-domain, for every
  // distribution kind and every attribute type.
  DistributionSpec spec;
  spec.kind = GetParam();
  spec.weights = {1.0, 2.0, 3.0, 4.0, 5.0};
  spec.null_prob = 0.1;
  Rng rng(99);
  const AttributeDef attrs[] = {NominalAttr(5), NumericAttr(-3.0, 7.0),
                                DateAttr(100, 400)};
  for (const AttributeDef& attr : attrs) {
    if (spec.kind == DistributionKind::kCategorical &&
        attr.type != DataType::kNominal) {
      continue;
    }
    for (int i = 0; i < 2000; ++i) {
      Value v = SampleValue(spec, attr, &rng);
      EXPECT_TRUE(attr.InDomain(v)) << DistributionKindToString(spec.kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DistributionDomainTest,
                         testing::Values(DistributionKind::kUniform,
                                         DistributionKind::kCategorical,
                                         DistributionKind::kNormal,
                                         DistributionKind::kExponential),
                         [](const auto& param_info) {
                           return DistributionKindToString(param_info.param);
                         });

TEST(DistributionTest, UniformNominalCoversDomain) {
  Rng rng(1);
  AttributeDef attr = NominalAttr(4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[static_cast<size_t>(
        SampleValue(DistributionSpec::Uniform(), attr, &rng).nominal_code())];
  }
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(DistributionTest, CategoricalRespectsWeights) {
  Rng rng(2);
  AttributeDef attr = NominalAttr(3);
  auto spec = DistributionSpec::Categorical({0.0, 1.0, 3.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[static_cast<size_t>(SampleValue(spec, attr, &rng).nominal_code())];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.05);
}

TEST(DistributionTest, NormalCentersOnMeanFraction) {
  Rng rng(3);
  AttributeDef attr = NumericAttr(0.0, 100.0);
  auto spec = DistributionSpec::Normal(0.3, 0.05);
  double sum = 0.0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) sum += SampleValue(spec, attr, &rng).numeric();
  EXPECT_NEAR(sum / n, 30.0, 1.0);
}

TEST(DistributionTest, ExponentialMassNearMinimum) {
  Rng rng(4);
  AttributeDef attr = NumericAttr(0.0, 100.0);
  auto spec = DistributionSpec::Exponential(5.0);
  int low = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (SampleValue(spec, attr, &rng).numeric() < 30.0) ++low;
  }
  EXPECT_GT(low, n * 3 / 4);
}

TEST(DistributionTest, NullProbability) {
  Rng rng(5);
  AttributeDef attr = NumericAttr(0.0, 1.0);
  auto spec = DistributionSpec::Uniform(0.25);
  int nulls = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    if (SampleValue(spec, attr, &rng).is_null()) ++nulls;
  }
  EXPECT_NEAR(nulls / static_cast<double>(n), 0.25, 0.03);
}

TEST(DistributionTest, ValidationCatchesBadSpecs) {
  AttributeDef nom = NominalAttr(3);
  AttributeDef num = NumericAttr(0, 1);
  EXPECT_FALSE(
      ValidateDistribution(DistributionSpec::Categorical({1.0}), nom).ok());
  EXPECT_FALSE(
      ValidateDistribution(DistributionSpec::Categorical({1, 1, 1}), num).ok());
  EXPECT_FALSE(
      ValidateDistribution(DistributionSpec::Categorical({0, 0, 0}), nom).ok());
  EXPECT_FALSE(
      ValidateDistribution(DistributionSpec::Categorical({-1, 1, 1}), nom).ok());
  EXPECT_FALSE(ValidateDistribution(DistributionSpec::Normal(0.5, 0.0), num).ok());
  EXPECT_FALSE(ValidateDistribution(DistributionSpec::Exponential(0.0), num).ok());
  DistributionSpec bad_null = DistributionSpec::Uniform(1.5);
  EXPECT_FALSE(ValidateDistribution(bad_null, num).ok());
  EXPECT_TRUE(ValidateDistribution(DistributionSpec::Uniform(), nom).ok());
}

// --- Descriptive ---------------------------------------------------------------

TEST(DescriptiveTest, EntropyKnownValues) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({10, 0, 0}), 0.0);
  EXPECT_NEAR(EntropyFromCounts({5, 5}), 1.0, 1e-12);
  EXPECT_NEAR(EntropyFromCounts({1, 1, 1, 1}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({0, 0}), 0.0);
}

TEST(DescriptiveTest, EntropyIgnoresScale) {
  EXPECT_NEAR(EntropyFromCounts({1, 3}), EntropyFromCounts({100, 300}), 1e-12);
}

TEST(DescriptiveTest, MeanAndStdDev) {
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(SampleStdDev(xs), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({1.0}), 0.0);
}

TEST(DescriptiveTest, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> yn{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, yn), -1.0, 1e-12);
  std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, flat), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, {1.0}), 0.0);  // length mismatch
}

TEST(DescriptiveTest, Median) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

TEST(DescriptiveTest, MedianOfHugeValuesStaysFinite) {
  EXPECT_EQ(Median({1e308, 1.6e308}), 1.3e308);
  EXPECT_EQ(Median({-1.6e308, -1e308}), -1.3e308);
  EXPECT_EQ(Median({DBL_MAX, DBL_MAX, 1.0, DBL_MAX}), DBL_MAX);
  EXPECT_EQ(Median({-DBL_MAX, DBL_MAX}), 0.0);
  Rng rng(23);
  for (int i = 0; i < 100000; ++i) {
    const auto [a, b] = InRangePair(&rng);
    ASSERT_EQ(Median({b, a}), (a + b) / 2) << a << " " << b;
  }
}

// --- Discretizer -----------------------------------------------------------------

TEST(DiscretizerTest, CutsAndRepresentativesOfHugeValuesStayFinite) {
  // 200 rows at 1e308 and 200 at 1.6e308: one cut between the two runs,
  // and each bin's representative is its own value.
  std::vector<double> sample(200, 1e308);
  sample.insert(sample.end(), 200, 1.6e308);
  auto d = EqualFrequencyDiscretizer::FitSorted(sample, 2);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->num_bins(), 2);
  EXPECT_EQ(d->cut_points()[0], 1.3e308);
  EXPECT_EQ(d->Representative(0), 1e308);
  EXPECT_EQ(d->Representative(1), 1.6e308);
  // One bin of two members: the representative is their midpoint.
  d = EqualFrequencyDiscretizer::FitSorted({DBL_MAX / 2, DBL_MAX}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isfinite(d->Representative(0)));
  EXPECT_GT(d->Representative(0), DBL_MAX / 2);
  d = EqualFrequencyDiscretizer::FitSorted({-DBL_MAX, -DBL_MAX / 2}, 2);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->num_bins(), 2);
  EXPECT_TRUE(std::isfinite(d->cut_points()[0]));
  EXPECT_LT(d->cut_points()[0], -DBL_MAX / 2);
}

TEST(DiscretizerTest, CutsAndRepresentativesAreTheHalvedSumInRange) {
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    const auto [a, b] = InRangePair(&rng);
    auto cut = EqualFrequencyDiscretizer::FitSorted({a, b}, 2);
    ASSERT_TRUE(cut.ok());
    ASSERT_EQ(cut->cut_points().size(), 1u);
    ASSERT_EQ(cut->cut_points()[0], (a + b) / 2) << a << " " << b;
    auto rep = EqualFrequencyDiscretizer::FitSorted({a, b}, 1);
    ASSERT_TRUE(rep.ok());
    ASSERT_EQ(rep->Representative(0), (a + b) / 2) << a << " " << b;
  }
}

TEST(DiscretizerTest, EqualFrequencyBins) {
  std::vector<double> sample;
  for (int i = 0; i < 100; ++i) sample.push_back(i);
  auto d = EqualFrequencyDiscretizer::Fit(sample, 4);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_bins(), 4);
  // Each bin should receive ~25 of the 100 uniform values.
  std::vector<int> counts(4, 0);
  for (double x : sample) ++counts[static_cast<size_t>(d->BinOf(x))];
  for (int c : counts) EXPECT_NEAR(c, 25, 2);
}

TEST(DiscretizerTest, BinOfIsMonotone) {
  std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto d = EqualFrequencyDiscretizer::Fit(sample, 5);
  ASSERT_TRUE(d.ok());
  int prev = 0;
  for (double x = 0.0; x <= 11.0; x += 0.25) {
    int b = d->BinOf(x);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(DiscretizerTest, DuplicateHeavySampleMergesBins) {
  std::vector<double> sample(50, 1.0);
  sample.insert(sample.end(), 50, 2.0);
  auto d = EqualFrequencyDiscretizer::Fit(sample, 10);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(d->num_bins(), 2);
  EXPECT_NE(d->BinOf(1.0), d->BinOf(2.0));
}

TEST(DiscretizerTest, ConstantSampleSingleBin) {
  auto d = EqualFrequencyDiscretizer::Fit(std::vector<double>(20, 5.0), 4);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_bins(), 1);
  EXPECT_EQ(d->BinOf(-100.0), 0);
  EXPECT_EQ(d->BinOf(100.0), 0);
  EXPECT_DOUBLE_EQ(d->Representative(0), 5.0);
}

TEST(DiscretizerTest, RepresentativeIsInsideBin) {
  std::vector<double> sample;
  for (int i = 0; i < 60; ++i) sample.push_back(i * i);  // skewed
  auto d = EqualFrequencyDiscretizer::Fit(sample, 6);
  ASSERT_TRUE(d.ok());
  for (int b = 0; b < d->num_bins(); ++b) {
    EXPECT_EQ(d->BinOf(d->Representative(b)), b);
  }
}

TEST(DiscretizerTest, RejectsBadInput) {
  EXPECT_FALSE(EqualFrequencyDiscretizer::Fit({}, 3).ok());
  EXPECT_FALSE(EqualFrequencyDiscretizer::Fit({1.0}, 0).ok());
}

TEST(DiscretizerTest, BinLabelsAreOrdered) {
  std::vector<double> sample{1, 2, 3, 4, 5, 6};
  auto d = EqualFrequencyDiscretizer::Fit(sample, 3);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->BinLabel(0).front(), '(');
  EXPECT_NE(d->BinLabel(0), d->BinLabel(d->num_bins() - 1));
}

}  // namespace
}  // namespace dq
