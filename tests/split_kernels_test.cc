// Exactness tests for the C4.5 split-scan kernels: each count kernel must
// produce exactly a naive count (they are integer accumulations, so
// "close" is not good enough), the cached XLog2X/EntropyBits fast paths
// must match the direct computation, and the binned threshold sweep must
// return bit for bit what the EntropyBits sweep it replaced returns.

#include <gtest/gtest.h>

#include <algorithm>
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

// --- binned threshold sweep ------------------------------------------------

/// The sweep SweepBinnedSplit replaced, kept verbatim as the oracle: it
/// calls EntropyBits on both sides of every candidate threshold.
kernels::SplitEval ReferenceSweep(const double* h, size_t nc,
                                    const AttributeBins& bins,
                                    double node_weight,
                                    double min_split_weight) {
  constexpr double kEps = 1e-9;
  kernels::SplitEval out;
  const size_t width = static_cast<size_t>(bins.num_bins);
  std::vector<double> bin_w(width, 0.0);
  std::vector<double> known_counts(nc, 0.0);
  double known = 0.0;
  for (size_t b = 0; b < width; ++b) {
    const double* row = h + b * nc;
    double bw = 0.0;
    for (size_t c = 0; c < nc; ++c) {
      bw += row[c];
      known_counts[c] += row[c];
    }
    bin_w[b] = bw;
    known += bw;
  }
  if (known <= kEps) return out;
  const double known_entropy = EntropyBits(known_counts.data(), nc);
  std::vector<double> left(nc, 0.0);
  std::vector<double> right = known_counts;
  double left_w = 0.0;
  double best_gain = -1.0;
  double best_thr = 0.0;
  double best_left_w = 0.0;
  uint64_t distinct = 0;
  bool lossy_bins = false;
  bool have_left = false;
  double last_upper = 0.0;
  for (size_t b = 0; b < width; ++b) {
    if (bin_w[b] <= 0.0) continue;
    distinct += bins.distinct[b];
    lossy_bins |= bins.distinct[b] > 1;
    if (have_left) {
      const double right_w = known - left_w;
      if (left_w >= min_split_weight && right_w >= min_split_weight) {
        const double sub = left_w / known * EntropyBits(left.data(), nc) +
                           right_w / known * EntropyBits(right.data(), nc);
        const double gain = known_entropy - sub;
        if (gain > best_gain) {
          best_gain = gain;
          best_thr = (last_upper + bins.lower[b]) / 2.0;
          best_left_w = left_w;
        }
      }
    }
    const double* row = h + b * nc;
    for (size_t c = 0; c < nc; ++c) {
      left[c] += row[c];
      right[c] -= row[c];
    }
    left_w += bin_w[b];
    have_left = true;
    last_upper = bins.upper[b];
  }
  if (best_gain <= kEps) return out;
  const double known_frac = known / node_weight;
  double gain = known_frac * best_gain;
  if (distinct > 1) {
    if (lossy_bins) {
      const auto cap = static_cast<uint64_t>(known + 0.5);
      distinct = std::max(uint64_t{2}, std::min(distinct, cap));
    }
    gain -= std::log2(static_cast<double>(distinct - 1)) / known;
  }
  if (gain <= kEps) return out;
  std::vector<double> si_weights{best_left_w, known - best_left_w};
  if (node_weight - known > kEps) si_weights.push_back(node_weight - known);
  const double split_info = EntropyBits(si_weights.data(), si_weights.size());
  out.valid = true;
  out.gain = gain;
  out.gain_ratio = split_info > kEps ? gain / split_info : 0.0;
  out.ordered = true;
  out.threshold = best_thr;
  return out;
}

TEST(SplitKernelsTest, BinnedSweepMatchesEntropyBitsReference) {
  Rng rng(2003);
  kernels::SweepScratch scratch;  // reused, as a tree builder reuses it
  size_t valid = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t nc = 1 + static_cast<size_t>(trial % 8);
    const int num_bins =
        trial % 5 == 0 ? 255 : static_cast<int>(rng.UniformInt(1, 40));
    AttributeBins bins;
    bins.num_bins = num_bins;
    double value = rng.UniformReal(-50, 50);
    for (int b = 0; b < num_bins; ++b) {
      bins.lower.push_back(value);
      value += rng.Bernoulli(0.3) ? 0.0 : rng.UniformReal(0.0, 3.0);
      bins.upper.push_back(value);
      value += rng.UniformReal(0.001, 2.0);
      bins.distinct.push_back(
          static_cast<uint32_t>(rng.Bernoulli(0.5) ? 1 : rng.UniformInt(1, 9)));
    }
    // Cells: integral counts, fractional null shares, sub-1e-9 residues
    // and zeros (many whole bins empty, as deep in a tree).
    std::vector<double> hist(static_cast<size_t>(num_bins) * nc, 0.0);
    const double empty_bin = rng.UniformReal(0.0, 0.8);
    const bool unit_weight = rng.Bernoulli(0.2);
    for (int b = 0; b < num_bins; ++b) {
      if (rng.Bernoulli(empty_bin)) continue;
      for (size_t c = 0; c < nc; ++c) {
        double& cell = hist[static_cast<size_t>(b) * nc + c];
        const double kind = rng.UniformReal(0.0, 1.0);
        if (kind < 0.35) {
          cell = 0.0;
        } else if (unit_weight || kind < 0.7) {
          cell = static_cast<double>(rng.UniformInt(1, 60));
        } else if (kind < 0.95) {
          cell = static_cast<double>(rng.UniformInt(0, 20)) +
                 rng.UniformReal(1e-6, 1.0);
        } else {
          cell = rng.UniformReal(1e-12, 1e-9);
        }
      }
    }
    double known = 0.0;
    for (double cell : hist) known += cell;
    const double node_weight =
        known + (rng.Bernoulli(0.5) ? 0.0 : rng.UniformReal(0.0, 30.0));
    const double min_split_weight = rng.Bernoulli(0.8) ? 2.0 : 0.5;

    const kernels::SplitEval want = ReferenceSweep(
        hist.data(), nc, bins, node_weight, min_split_weight);
    const kernels::SplitEval got = kernels::SweepBinnedSplit(
        hist.data(), nc, bins, node_weight, min_split_weight, &scratch);
    ASSERT_EQ(got.valid, want.valid) << "trial " << trial;
    EXPECT_EQ(got.gain, want.gain) << "trial " << trial;
    EXPECT_EQ(got.gain_ratio, want.gain_ratio) << "trial " << trial;
    EXPECT_EQ(got.ordered, want.ordered) << "trial " << trial;
    EXPECT_EQ(got.threshold, want.threshold) << "trial " << trial;
    valid += want.valid ? 1 : 0;
  }
  // Both outcomes must be exercised for the comparison to mean anything.
  EXPECT_GT(valid, 500u);
  EXPECT_LT(valid, 2900u);
}

}  // namespace
}  // namespace dq
