// Unit tests for src/common: Status, Result, Rng, string helpers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace dq {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Unsatisfiable("no model");
  Status t = s;
  EXPECT_TRUE(t.IsUnsatisfiable());
  EXPECT_EQ(t.message(), "no model");
  EXPECT_TRUE(s.IsUnsatisfiable());  // source intact
}

TEST(StatusTest, MoveLeavesOkSource) {
  Status s = Status::NotFound("gone");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsNotFound());
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Exhausted("x").code(), StatusCode::kExhausted);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    DQ_RETURN_NOT_OK(Status::IOError("disk"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kIOError);
  auto passes = []() -> Status {
    DQ_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_EQ(passes().code(), StatusCode::kInvalidArgument);
}

// --- Result ---------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.ValueOr("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Exhausted("nope");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    DQ_ASSIGN_OR_RETURN(int x, inner(fail));
    return x + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_TRUE(outer(true).status().IsExhausted());
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformRealInHalfOpenRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformReal(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformRealMatchesTheStandardDistributionInRange) {
  // Every domain narrower than DBL_MAX draws exactly what the standard
  // distribution draws from the same engine state.
  Rng bounds(17);
  Rng ours(2003);
  std::mt19937_64 engine = ours.engine();
  for (int i = 0; i < 100000; ++i) {
    const double scale = std::pow(10.0, bounds.UniformInt(-300, 307));
    double lo = (bounds.NextDouble() * 2 - 1) * scale;
    double hi = lo + bounds.NextDouble() * scale;
    if (!(hi > lo)) hi = std::nextafter(lo, INFINITY);
    std::uniform_real_distribution<double> dist(lo, hi);
    const double want = dist(engine);
    const double got = ours.UniformReal(lo, hi);
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "draw " << i << " in [" << lo << ", " << hi << ")";
  }
}

TEST(RngTest, UniformRealSpansDomainsWiderThanDblMax) {
  Rng rng(5);
  size_t negative = 0;
  size_t positive = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformReal(-1e308, 1e308);
    ASSERT_TRUE(std::isfinite(x)) << "draw " << i;
    ASSERT_GE(x, -1e308);
    ASSERT_LT(x, 1e308);
    (x < 0 ? negative : positive) += 1;
  }
  EXPECT_GT(negative, 4000u);
  EXPECT_GT(positive, 4000u);
  const double max = std::numeric_limits<double>::max();
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformReal(-max, max);
    ASSERT_TRUE(std::isfinite(x));
    ASSERT_LT(x, max);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliClampsOutOfRangeProbability) {
  Rng rng(9);
  EXPECT_TRUE(rng.Bernoulli(2.5));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.05);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(29);
  std::vector<double> weights{0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.WeightedIndex(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.Fork(0);
  Rng a2(123);
  Rng child2 = a2.Fork(0);
  EXPECT_EQ(child.UniformInt(0, 1 << 30), child2.UniformInt(0, 1 << 30));
}

TEST(SplitMix64Test, MixesAdjacentSeeds) {
  EXPECT_NE(SplitMix64(0), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("a b"), "a b");
}

TEST(StringsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
  EXPECT_EQ(FormatDouble(-3.125), "-3.125");
}

/// printf's "%.*f" into a buffer that holds any double, trimmed the way
/// FormatDouble trims.
std::string PrintfTrimmed(double v, int decimals) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

TEST(StringsTest, FormatDoublePrintsEveryMagnitudeInFull) {
  const double max = std::numeric_limits<double>::max();
  for (double v : {max, -max, -1e300, 1e56, 1e57, 4.9e-324, 0.0, -0.0, 2.5,
                   12.25, 0.125, 988.55, -0.0000004, 1e-300}) {
    for (int decimals : {0, 1, 2, 3, 4, 6, 17, 40}) {
      EXPECT_EQ(FormatDouble(v, decimals), PrintfTrimmed(v, decimals))
          << v << " at " << decimals;
    }
  }
  // A 64-byte buffer used to cut these short.
  EXPECT_EQ(FormatDouble(max).size(), 309u);
  EXPECT_EQ(FormatDouble(-max).size(), 310u);
  EXPECT_EQ(FormatDouble(1e57).size(), 58u);
  // Exact ties round as printf rounds them.
  EXPECT_EQ(FormatDouble(2.5, 0), PrintfTrimmed(2.5, 0));
  EXPECT_EQ(FormatDouble(12.25, 1), PrintfTrimmed(12.25, 1));
  EXPECT_EQ(FormatDouble(0.125, 2), PrintfTrimmed(0.125, 2));
  EXPECT_EQ(FormatDouble(-0.0), "-0");

  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Every exponent from random bits, and report-sized values.
    const double v = i % 2 == 0 ? std::bit_cast<double>(rng.engine()())
                                : rng.UniformReal(-2000.0, 2000.0);
    if (std::isnan(v)) continue;
    const int decimals = static_cast<int>(rng.UniformInt(0, 6));
    ASSERT_EQ(FormatDouble(v, decimals), PrintfTrimmed(v, decimals))
        << std::hexfloat << v << " at " << decimals;
  }
  std::string appended = "x=";
  AppendFormattedDouble(&appended, 0.5, 6);
  EXPECT_EQ(appended, "x=0.5");
}

TEST(StringsTest, ParseDoubleAcceptsValidInput) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseByteSizeAcceptsPlainAndSuffixedCounts) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseByteSize("65536", &v));
  EXPECT_EQ(v, 65536u);
  EXPECT_TRUE(ParseByteSize("64K", &v));
  EXPECT_EQ(v, 64u << 10);
  EXPECT_TRUE(ParseByteSize("2g", &v));
  EXPECT_EQ(v, uint64_t{2} << 30);
  EXPECT_TRUE(ParseByteSize("1GiB", &v));
  EXPECT_EQ(v, uint64_t{1} << 30);
  EXPECT_TRUE(ParseByteSize("3MB", &v));
  EXPECT_EQ(v, uint64_t{3} << 20);
  EXPECT_TRUE(ParseByteSize("1T", &v));
  EXPECT_EQ(v, uint64_t{1} << 40);
  EXPECT_TRUE(ParseByteSize(" 64B ", &v));
  EXPECT_EQ(v, 64u);
  EXPECT_TRUE(ParseByteSize("0", &v));
  EXPECT_EQ(v, 0u);
}

TEST(StringsTest, ParseByteSizeRejectsJunkNegativesAndOverflow) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseByteSize("", &v));
  EXPECT_FALSE(ParseByteSize("abc", &v));
  EXPECT_FALSE(ParseByteSize("-5", &v));
  EXPECT_FALSE(ParseByteSize("-64K", &v));
  EXPECT_FALSE(ParseByteSize("64Q", &v));
  EXPECT_FALSE(ParseByteSize("1.5G", &v));
  EXPECT_FALSE(ParseByteSize("64iB", &v));  // "iB" needs a multiplier letter
  EXPECT_FALSE(ParseByteSize("99999999999999999999999", &v));
  EXPECT_FALSE(ParseByteSize("999999999999T", &v));  // multiplier overflow
}

}  // namespace
}  // namespace dq
