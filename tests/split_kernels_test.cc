// Exactness tests for the C4.5 split-scan kernels: each count kernel must
// produce exactly a naive count (they are integer accumulations, so
// "close" is not good enough), the cached XLog2X/EntropyBits fast paths
// must match the direct computation, and the binned threshold sweep must
// return bit for bit what the EntropyBits sweep it replaced returns,
// whatever occupancy mask covers the node's non-empty bins.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "midpoint_pairs.h"
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

/// The sweep SweepBinnedSplit replaced, kept as the oracle: it walks
/// every bin and calls EntropyBits on both sides of every candidate
/// threshold. It also counts the admissible candidates, and reports
/// whether some class's right side ended below zero.
struct Reference {
  kernels::SplitEval eval;
  uint64_t candidates = 0;
  bool negative_residue = false;
  double raw_gain = -1.0;  ///< best gain before the MDL correction
  double penalty = 0.0;    ///< the MDL correction's subtrahend
};

Reference ReferenceSweep(const double* h, size_t nc, const AttributeBins& bins,
                         double node_weight, double min_split_weight) {
  constexpr double kEps = 1e-9;
  Reference ref;
  kernels::SplitEval& out = ref.eval;
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
  if (known <= kEps) return ref;
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
  size_t last_bin = 0;
  for (size_t b = 0; b < width; ++b) {
    if (bin_w[b] <= 0.0) continue;
    distinct += bins.distinct[b];
    lossy_bins |= bins.distinct[b] > 1;
    if (have_left) {
      const double right_w = known - left_w;
      if (left_w >= min_split_weight && right_w >= min_split_weight) {
        ++ref.candidates;
        const double sub = left_w / known * EntropyBits(left.data(), nc) +
                           right_w / known * EntropyBits(right.data(), nc);
        const double gain = known_entropy - sub;
        if (gain > best_gain) {
          best_gain = gain;
          best_thr = std::midpoint(bins.upper[last_bin], bins.lower[b]);
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
    last_bin = b;
  }
  for (double r : right) ref.negative_residue |= r < 0.0;
  ref.raw_gain = best_gain;
  if (best_gain <= kEps) return ref;
  const double known_frac = known / node_weight;
  double gain = known_frac * best_gain;
  if (distinct > 1) {
    if (lossy_bins) {
      const auto cap = static_cast<uint64_t>(known + 0.5);
      distinct = std::max(uint64_t{2}, std::min(distinct, cap));
    }
    ref.penalty = std::log2(static_cast<double>(distinct - 1)) / known;
    gain -= ref.penalty;
  }
  if (gain <= kEps) return ref;
  std::vector<double> si_weights{best_left_w, known - best_left_w};
  if (node_weight - known > kEps) si_weights.push_back(node_weight - known);
  const double split_info = EntropyBits(si_weights.data(), si_weights.size());
  out.valid = true;
  out.gain = gain;
  out.gain_ratio = split_info > kEps ? gain / split_info : 0.0;
  out.ordered = true;
  out.threshold = best_thr;
  return ref;
}

using Mask = std::vector<uint64_t>;

void SetBin(Mask* mask, size_t b) {
  (*mask)[b / 64] |= uint64_t{1} << (b % 64);
}

uint64_t PopCount(const Mask& mask) {
  uint64_t n = 0;
  for (uint64_t w : mask) n += static_cast<uint64_t>(std::popcount(w));
  return n;
}

void ExpectSameEval(const kernels::SplitEval& got,
                    const kernels::SplitEval& want, int trial) {
  ASSERT_EQ(got.valid, want.valid) << "trial " << trial;
  EXPECT_EQ(got.gain, want.gain) << "trial " << trial;
  EXPECT_EQ(got.gain_ratio, want.gain_ratio) << "trial " << trial;
  EXPECT_EQ(got.ordered, want.ordered) << "trial " << trial;
  EXPECT_EQ(got.threshold, want.threshold) << "trial " << trial;
}

/// `num_bins` bins of ascending values: some hold one value, some a
/// range, and each swallowed 1 to 9 distinct values.
AttributeBins RandomBins(int num_bins, Rng* rng) {
  AttributeBins bins;
  bins.num_bins = num_bins;
  double value = rng->UniformReal(-50, 50);
  for (int b = 0; b < num_bins; ++b) {
    bins.lower.push_back(value);
    value += rng->Bernoulli(0.3) ? 0.0 : rng->UniformReal(0.0, 3.0);
    bins.upper.push_back(value);
    value += rng->UniformReal(0.001, 2.0);
    bins.distinct.push_back(static_cast<uint32_t>(
        rng->Bernoulli(0.5) ? 1 : rng->UniformInt(1, 9)));
  }
  return bins;
}

/// Sweeps `hist` under the mask of its bins with a non-zero cell and
/// under a superset that adds empty bins, as a subtraction child inherits
/// its parent's, and expects every SplitEval field and the scratch's work
/// totals to equal the oracle's. Returns the exact re-scores of one sweep.
uint64_t ExpectSweepMatchesReference(const std::vector<double>& hist,
                                     size_t nc, const AttributeBins& bins,
                                     double node_weight,
                                     double min_split_weight,
                                     const Reference& want, Rng* rng,
                                     kernels::SweepScratch* scratch,
                                     int trial) {
  const auto num_bins = static_cast<size_t>(bins.num_bins);
  Mask exact(kernels::kBinMaskWords, 0);
  for (size_t b = 0; b < num_bins; ++b) {
    for (size_t c = 0; c < nc; ++c) {
      if (hist[b * nc + c] != 0.0) {
        SetBin(&exact, b);
        break;
      }
    }
  }
  Mask superset = exact;
  for (size_t b = 0; b < num_bins; ++b) {
    if (rng->Bernoulli(0.3)) SetBin(&superset, b);
  }
  std::vector<uint64_t> rescored;
  for (const Mask* mask : {&exact, &superset}) {
    const uint64_t bins_before = scratch->bins_visited;
    const uint64_t scored_before = scratch->candidates_scored;
    const uint64_t rescored_before = scratch->candidates_rescored;
    const kernels::SplitEval got = kernels::SweepBinnedSplit(
        hist.data(), mask->data(), nc, bins, node_weight, min_split_weight,
        scratch);
    ExpectSameEval(got, want.eval, trial);
    EXPECT_EQ(scratch->bins_visited - bins_before, PopCount(*mask))
        << "trial " << trial;
    EXPECT_EQ(scratch->candidates_scored - scored_before, want.candidates)
        << "trial " << trial;
    rescored.push_back(scratch->candidates_rescored - rescored_before);
  }
  // Empty bins move nothing, so they cannot change what is re-scored.
  EXPECT_EQ(rescored[0], rescored[1]) << "trial " << trial;
  EXPECT_LE(rescored[0], want.candidates) << "trial " << trial;
  // A split is only found by an exact score.
  if (want.eval.valid) {
    EXPECT_GT(rescored[0], 0u) << "trial " << trial;
  }
  return rescored[0];
}

TEST(SplitKernelsTest, BinnedSweepMatchesEntropyBitsReference) {
  Rng rng(2003);
  kernels::SweepScratch scratch;  // reused, as a tree builder reuses it
  size_t valid = 0;
  size_t wide = 0;
  size_t negative_residues = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Every 20th trial has more than 64 classes.
    const size_t nc = trial % 20 == 7
                          ? static_cast<size_t>(rng.UniformInt(65, 90))
                          : 1 + static_cast<size_t>(trial % 8);
    const int num_bins =
        trial % 5 == 0 ? 255 : static_cast<int>(rng.UniformInt(1, 40));
    const AttributeBins bins = RandomBins(num_bins, &rng);
    // Cells: integral counts, fractional null shares, sub-1e-9 residues
    // and zeros (many whole bins empty, as deep in a tree). Decimal
    // fractions such as 0.1 and 0.7 make the right side's running
    // difference end just below zero for some classes.
    std::vector<double> hist(static_cast<size_t>(num_bins) * nc, 0.0);
    const double empty_bin = rng.UniformReal(0.0, 0.8);
    const bool unit_weight = rng.Bernoulli(0.2);
    const bool decimal = !unit_weight && rng.Bernoulli(0.2);
    for (int b = 0; b < num_bins; ++b) {
      if (rng.Bernoulli(empty_bin)) continue;
      for (size_t c = 0; c < nc; ++c) {
        double& cell = hist[static_cast<size_t>(b) * nc + c];
        const double kind = rng.UniformReal(0.0, 1.0);
        if (kind < 0.35) {
          cell = 0.0;
        } else if (decimal) {
          cell = 0.1 * static_cast<double>(rng.UniformInt(1, 9));
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
    const Reference want = ReferenceSweep(hist.data(), nc, bins, node_weight,
                                          min_split_weight);
    ExpectSweepMatchesReference(hist, nc, bins, node_weight,
                                min_split_weight, want, &rng, &scratch,
                                trial);
    valid += want.eval.valid ? 1 : 0;
    wide += nc > 64 && want.eval.valid ? 1 : 0;
    negative_residues += want.negative_residue ? 1 : 0;
  }
  // Every case must be exercised for the comparison to mean anything.
  EXPECT_GT(valid, 500u);
  EXPECT_LT(valid, 2900u);
  EXPECT_GT(wide, 20u);
  EXPECT_GT(negative_residues, 20u);

  // Tie-heavy histograms, where many candidates score within the first
  // pass's error bound of the best and the exact re-score must decide:
  // a few rows repeated periodically across the bins, every bin with the
  // same class mix, and a first half mirrored into the second. Cells are
  // integers or dyadic fractions, so equal sums are exactly equal; every
  // tenth trial has more than 64 classes.
  size_t tie_valid = 0;
  size_t tie_wide = 0;
  size_t near_ties = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t nc = trial % 10 == 9
                          ? static_cast<size_t>(rng.UniformInt(65, 90))
                          : 2 + static_cast<size_t>(rng.UniformInt(0, 6));
    const int num_bins =
        trial % 2 == 0 ? 255 : static_cast<int>(rng.UniformInt(4, 60));
    const auto width = static_cast<size_t>(num_bins);
    const AttributeBins bins = RandomBins(num_bins, &rng);
    const bool dyadic = rng.Bernoulli(0.5);
    auto draw_row = [&] {
      std::vector<double> row(nc, 0.0);
      for (double& cell : row) {
        if (rng.Bernoulli(0.4)) continue;
        cell = dyadic ? static_cast<double>(rng.UniformInt(1, 64)) / 8.0
                      : static_cast<double>(rng.UniformInt(1, 20));
      }
      // No row is all zeros.
      const auto last = static_cast<int64_t>(nc) - 1;
      row[static_cast<size_t>(rng.UniformInt(0, last))] = 1.0;
      return row;
    };
    std::vector<std::vector<double>> rows(width);
    switch (trial % 3) {
      case 0: {  // periodic
        std::vector<std::vector<double>> period(
            static_cast<size_t>(rng.UniformInt(2, 6)));
        for (auto& row : period) row = draw_row();
        for (size_t b = 0; b < width; ++b) rows[b] = period[b % period.size()];
        break;
      }
      case 1: {  // one class mix, at one or several integral scales
        const std::vector<double> mix = draw_row();
        const bool scaled = rng.Bernoulli(0.5);
        for (size_t b = 0; b < width; ++b) {
          const auto scale =
              scaled ? static_cast<double>(rng.UniformInt(1, 4)) : 1.0;
          rows[b] = mix;
          for (double& cell : rows[b]) cell *= scale;
        }
        break;
      }
      default:  // mirrored halves
        for (size_t b = 0; b < (width + 1) / 2; ++b) {
          rows[b] = draw_row();
          rows[width - 1 - b] = rows[b];
        }
        break;
    }
    std::vector<double> hist(width * nc, 0.0);
    const bool gaps = rng.Bernoulli(0.3);
    for (size_t b = 0; b < width; ++b) {
      if (gaps && rng.Bernoulli(0.2)) continue;
      std::copy(rows[b].begin(), rows[b].end(), hist.begin() + b * nc);
    }
    double known = 0.0;
    for (double cell : hist) known += cell;
    const double node_weight =
        known + (rng.Bernoulli(0.5)
                     ? 0.0
                     : static_cast<double>(rng.UniformInt(1, 30)));
    const double min_split_weight = rng.Bernoulli(0.8) ? 2.0 : 0.5;
    const Reference want = ReferenceSweep(hist.data(), nc, bins, node_weight,
                                          min_split_weight);
    const uint64_t rescored = ExpectSweepMatchesReference(
        hist, nc, bins, node_weight, min_split_weight, want, &rng, &scratch,
        1000000 + trial);
    tie_valid += want.eval.valid ? 1 : 0;
    tie_wide += nc > 64 && want.eval.valid ? 1 : 0;
    near_ties += rescored > 1 ? 1 : 0;
  }
  EXPECT_GT(tie_valid, 500u);
  EXPECT_GT(tie_wide, 20u);
  EXPECT_GT(near_ties, 500u);

  // Splits whose MDL-corrected gain lands just above the 1e-9 floor, where
  // the first pass alone cannot tell a split from none: the node weight
  // (its share of unknown values) is set from the oracle's raw gain and
  // penalty so that the corrected gain falls between 1e-9 and 2e-9.
  size_t near_floor = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t nc = 2 + static_cast<size_t>(rng.UniformInt(0, 6));
    const int num_bins = static_cast<int>(rng.UniformInt(2, 80));
    const AttributeBins bins = RandomBins(num_bins, &rng);
    std::vector<double> hist(static_cast<size_t>(num_bins) * nc, 0.0);
    const bool fractional = rng.Bernoulli(0.5);
    for (double& cell : hist) {
      if (rng.Bernoulli(0.4)) continue;
      cell = fractional ? rng.UniformReal(1e-6, 30.0)
                        : static_cast<double>(rng.UniformInt(1, 30));
    }
    double known = 0.0;
    for (double cell : hist) known += cell;
    const Reference probe = ReferenceSweep(hist.data(), nc, bins, known, 2.0);
    if (!(probe.raw_gain > probe.penalty + 1e-6)) continue;
    const double target = 1e-9 * (1.0 + rng.UniformReal(1e-3, 1.0));
    const double node_weight =
        known * probe.raw_gain / (probe.penalty + target);
    const Reference want =
        ReferenceSweep(hist.data(), nc, bins, node_weight, 2.0);
    ExpectSweepMatchesReference(hist, nc, bins, node_weight, 2.0, want,
                                &rng, &scratch, 2000000 + trial);
    near_floor += want.eval.valid ? 1 : 0;
  }
  EXPECT_GT(near_floor, 1000u);
}

TEST(SplitKernelsTest, ApproxXLog2XStaysWithinItsBound) {
  // ApproxXLog2X(x) may differ from x * log2(x) by x * kApproxLog2Error
  // plus rounding; the sweep's window rests on that. Probed on more than
  // a million doubles: every knot of the table and its neighbours one ulp
  // away, interval midpoints (where interpolation errs most), powers of
  // two one ulp either side, integers up to 2^32, weights near 1e-6,
  // random normal doubles of every exponent, and subnormals. Past 2^1012
  // the product x * log2(x) itself overflows.
  std::vector<double> xs;
  for (int e = -1022; e <= 1011; ++e) {
    const double p = std::ldexp(1.0, e);
    xs.insert(xs.end(),
              {p, std::nextafter(p, 0.0), std::nextafter(p, INFINITY)});
  }
  for (const int e : {-40, -20, -1, 0, 1, 5, 14, 31, 60, 1000}) {
    for (int j = 0; j < 1024; ++j) {
      const double knot = std::ldexp(1.0 + j / 1024.0, e);
      xs.insert(xs.end(), {knot, std::nextafter(knot, 0.0),
                           std::nextafter(knot, INFINITY),
                           std::ldexp(1.0 + (j + 0.5) / 1024.0, e)});
    }
  }
  Rng rng(29);
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(static_cast<double>(rng.UniformInt(1, int64_t{1} << 32)));
    xs.push_back(static_cast<double>(i + 1));
    xs.push_back(1e-6 * static_cast<double>(rng.UniformInt(1, 1000000)));
    xs.push_back(rng.UniformReal(1e-6, 2e-6));
    // A random normal double: any exponent, any mantissa.
    const uint64_t bits =
        (static_cast<uint64_t>(rng.UniformInt(1, 1012 + 1023)) << 52) |
        (rng.engine()() & ((uint64_t{1} << 52) - 1));
    xs.push_back(std::bit_cast<double>(bits));
  }
  ASSERT_GE(xs.size(), 1000000u);
  constexpr double u = 0x1p-53;
  double worst = 0.0;  // largest error seen, in units of log2
  for (const double x : xs) {
    const double want = x * std::log2(x);
    const double got = kernels::ApproxXLog2X(x);
    ASSERT_LE(std::abs(got - want),
              x * kernels::kApproxLog2Error + 4.0 * u * std::abs(want))
        << "x=" << x;
    worst = std::max(worst, std::abs(got - want) / x);
  }
  // The midpoint of the first interval comes within 0.2% of the bound:
  // it is tight.
  EXPECT_GT(worst, 0.998 * kernels::kApproxLog2Error);
  // Subnormals take std::log2 itself; zero and below give 0, as XLog2X.
  for (int i = 0; i < 10000; ++i) {
    const double x = std::bit_cast<double>(
        rng.engine()() & ((uint64_t{1} << 52) - 1));
    ASSERT_EQ(kernels::ApproxXLog2X(x), x > 0.0 ? x * std::log2(x) : 0.0)
        << "x=" << x;
  }
  for (const double x : {DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0)}) {
    EXPECT_EQ(kernels::ApproxXLog2X(x), x * std::log2(x));
  }
  for (const double x : {0.0, -0.0, -1.0, -DBL_MAX}) {
    EXPECT_EQ(kernels::ApproxXLog2X(x), 0.0) << "x=" << x;
  }
}

/// Two one-value bins holding opposite classes, the left at `lo` and the
/// right at `hi`: the only candidate is their midpoint.
kernels::SplitEval SweepTwoBins(double lo, double hi,
                                kernels::SweepScratch* scratch) {
  AttributeBins bins;
  bins.num_bins = 2;
  bins.lower = {lo, hi};
  bins.upper = {lo, hi};
  bins.distinct = {1, 1};
  const double hist[4] = {5.0, 0.0, 0.0, 5.0};
  const uint64_t mask[kernels::kBinMaskWords] = {3, 0, 0, 0};
  return kernels::SweepBinnedSplit(hist, mask, 2, bins, 10.0, 2.0, scratch);
}

TEST(SplitKernelsTest, ThresholdIsTheMidpointEvenNearTheLargestDouble) {
  kernels::SweepScratch scratch;
  // (a + b) / 2 overflows to inf here; the midpoint does not.
  kernels::SplitEval eval = SweepTwoBins(1e308, 1.6e308, &scratch);
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.threshold, 1.3e308);
  eval = SweepTwoBins(-1.6e308, -1e308, &scratch);
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.threshold, -1.3e308);
  eval = SweepTwoBins(DBL_MAX / 2, DBL_MAX, &scratch);
  ASSERT_TRUE(eval.valid);
  EXPECT_TRUE(std::isfinite(eval.threshold));
  EXPECT_GT(eval.threshold, DBL_MAX / 2);
  eval = SweepTwoBins(-DBL_MAX, DBL_MAX, &scratch);
  ASSERT_TRUE(eval.valid);
  EXPECT_EQ(eval.threshold, 0.0);

  // Within +-DBL_MAX / 2 the midpoint is (a + b) / 2, bit for bit.
  Rng rng(19);
  for (int i = 0; i < 100000; ++i) {
    const auto [a, b] = InRangePair(&rng);
    eval = SweepTwoBins(a, b, &scratch);
    ASSERT_TRUE(eval.valid) << a << " " << b;
    ASSERT_EQ(eval.threshold, (a + b) / 2) << a << " " << b;
  }
}

TEST(SplitKernelsTest, MidpointOfAdjacentDoublesIsOneOfThem) {
  // Adjacent doubles whose exact midpoint is a tie that rounds to the
  // even one, here the right value: a row of the right bin then
  // satisfies value <= threshold (C45HistogramTest checks the partition).
  const double lo = std::ldexp(1.0, 40) + std::ldexp(1.0, -12);  // odd
  const double hi = std::nextafter(lo, INFINITY);
  kernels::SweepScratch scratch;
  const kernels::SplitEval tie = SweepTwoBins(lo, hi, &scratch);
  ASSERT_TRUE(tie.valid);
  EXPECT_EQ(tie.threshold, hi);
  // One ulp further, the tie rounds down onto the left value.
  const double lo2 = hi;
  const double hi2 = std::nextafter(hi, INFINITY);
  const kernels::SplitEval down = SweepTwoBins(lo2, hi2, &scratch);
  ASSERT_TRUE(down.valid);
  EXPECT_EQ(down.threshold, lo2);
}

}  // namespace
}  // namespace dq
