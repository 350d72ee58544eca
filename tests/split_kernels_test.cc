// Exactness tests for the C4.5 split-scan kernels: each count kernel must
// produce exactly a naive count (they are integer accumulations, so
// "close" is not good enough), and the cached XLog2X/EntropyBits fast
// paths must match the direct computation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mining/split_kernels.h"
#include "stats/descriptive.h"

namespace dq {
namespace {

struct CountFixture {
  std::vector<uint8_t> bins;
  std::vector<int32_t> codes;
  std::vector<int32_t> cls;
  size_t nc = 0;
  size_t num_bins = 0;
  size_t num_codes = 0;
};

/// Random columns with nulls sprinkled in (0xFF bins, negative codes and
/// class codes).
CountFixture MakeFixture(size_t n, size_t num_bins, size_t num_codes,
                         size_t nc, uint64_t seed) {
  CountFixture f;
  f.nc = nc;
  f.num_bins = num_bins;
  f.num_codes = num_codes;
  f.bins.resize(n);
  f.codes.resize(n);
  f.cls.resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    f.bins[i] = rng.Bernoulli(0.07)
                    ? uint8_t{0xFF}
                    : static_cast<uint8_t>(rng.UniformInt(
                          0, static_cast<int>(num_bins) - 1));
    f.codes[i] = rng.Bernoulli(0.07)
                     ? int32_t{-1}
                     : static_cast<int32_t>(rng.UniformInt(
                           0, static_cast<int>(num_codes) - 1));
    f.cls[i] = rng.Bernoulli(0.05)
                   ? int32_t{-1}
                   : static_cast<int32_t>(
                         rng.UniformInt(0, static_cast<int>(nc) - 1));
  }
  return f;
}

/// Joint count written to be obviously correct rather than fast: one pass
/// per (value, class) cell. Null codes (0xFF bins, negative codes) and
/// negative classes never equal a cell's value, so they are skipped.
template <typename Code>
std::vector<uint32_t> NaiveJointCount(const std::vector<Code>& codes,
                                      const std::vector<int32_t>& cls,
                                      size_t num_values, size_t nc) {
  std::vector<uint32_t> out(num_values * nc, 0);
  for (size_t v = 0; v < num_values; ++v) {
    for (size_t c = 0; c < nc; ++c) {
      for (size_t r = 0; r < codes.size(); ++r) {
        if (static_cast<int64_t>(codes[r]) == static_cast<int64_t>(v) &&
            cls[r] == static_cast<int32_t>(c)) {
          ++out[v * nc + c];
        }
      }
    }
  }
  return out;
}

TEST(SplitKernelsTest, CountBinClassMatchesNaiveCount) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1013}}) {
    const CountFixture f = MakeFixture(n, 61, 17, 5, 101 + n);
    std::vector<uint32_t> got(f.num_bins * f.nc, 0);
    kernels::CountBinClass(f.bins.data(), f.cls.data(), n, f.nc, got.data());
    EXPECT_EQ(NaiveJointCount(f.bins, f.cls, f.num_bins, f.nc), got)
        << "n=" << n;
  }
}

TEST(SplitKernelsTest, CountCodeClassMatchesNaiveCount) {
  for (const size_t n : {size_t{0}, size_t{3}, size_t{9}, size_t{2047}}) {
    const CountFixture f = MakeFixture(n, 8, 23, 4, 211 + n);
    std::vector<uint32_t> got(f.num_codes * f.nc, 0);
    kernels::CountCodeClass(f.codes.data(), f.cls.data(), n, f.nc,
                            got.data());
    EXPECT_EQ(NaiveJointCount(f.codes, f.cls, f.num_codes, f.nc), got)
        << "n=" << n;
  }
}

TEST(SplitKernelsTest, CountClassesMatchesNaiveCount) {
  for (const size_t n : {size_t{0}, size_t{5}, size_t{4099}}) {
    const CountFixture f = MakeFixture(n, 4, 4, 7, 307 + n);
    // Every row in the single value 0: the joint count is the class count.
    const std::vector<int32_t> one_value(n, 0);
    std::vector<uint32_t> got(f.nc, 0);
    kernels::CountClasses(f.cls.data(), n, got.data());
    EXPECT_EQ(NaiveJointCount(one_value, f.cls, 1, f.nc), got) << "n=" << n;
  }
}

TEST(SplitKernelsTest, SimdLevelNamesAKnownVariant) {
  EXPECT_STREQ(kernels::SimdLevel(), "scalar");
}

// --- log2 cache / entropy -------------------------------------------------

TEST(SplitKernelsTest, XLog2XTableMatchesDirectComputationBitwise) {
  // Every small integer must resolve through the table to EXACTLY
  // x * std::log2(x): the histogram evaluator relies on table hits being
  // indistinguishable from the slow path.
  for (const double x : {0.0, 1.0, 2.0, 3.0, 10.0, 255.0, 4096.0, 65535.0}) {
    const double direct = x <= 0.0 ? 0.0 : x * std::log2(x);
    EXPECT_EQ(XLog2X(x), direct) << "x=" << x;
  }
  // Non-integers and huge values take the slow path unchanged.
  for (const double x : {0.5, 2.25, 1e6, 7.000001}) {
    EXPECT_EQ(XLog2X(x), x * std::log2(x)) << "x=" << x;
  }
}

double NaiveEntropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) {
    if (c > 0.0) total += c;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

TEST(SplitKernelsTest, EntropyBitsMatchesNaiveFormulation) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> counts(1 + static_cast<size_t>(trial % 7));
    for (double& c : counts) {
      c = trial % 3 == 0 ? static_cast<double>(rng.UniformInt(0, 500))
                         : rng.UniformReal(0, 500);
    }
    const double got = EntropyBits(counts.data(), counts.size());
    EXPECT_NEAR(got, NaiveEntropy(counts), 1e-12) << "trial " << trial;
    EXPECT_GE(got, 0.0);
  }
}

}  // namespace
}  // namespace dq
