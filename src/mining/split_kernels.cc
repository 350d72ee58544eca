#include "mining/split_kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "mining/compiled_tree.h"
#include "stats/descriptive.h"

namespace dq::kernels {

const char* SimdLevel() { return "scalar"; }

void CountBinClass(const uint8_t* bins, const int32_t* cls, size_t n,
                   size_t nc, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    const uint8_t b = bins[r];
    const int32_t c = cls[r];
    if (b == 0xFF || c < 0) continue;
    ++out[static_cast<size_t>(b) * nc + static_cast<size_t>(c)];
  }
}

void CountCodeClass(const int32_t* codes, const int32_t* cls, size_t n,
                    size_t nc, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    const int32_t b = codes[r];
    const int32_t c = cls[r];
    if (b < 0 || c < 0) continue;
    ++out[static_cast<size_t>(b) * nc + static_cast<size_t>(c)];
  }
}

void CountClasses(const int32_t* cls, size_t n, uint32_t* out) {
  for (size_t r = 0; r < n; ++r) {
    if (cls[r] >= 0) ++out[static_cast<size_t>(cls[r])];
  }
}

namespace {

/// XLog2X's value for a count, without its integral-table branch: the
/// table holds x * std::log2(x), so the two agree bit for bit.
double Term(double x) { return x > 0.0 ? x * std::log2(x) : 0.0; }

/// EntropyBits(counts, nc) from cached terms. Skipped counts add +0.0
/// here, which leaves both sums unchanged, so the result is bitwise equal.
double CachedEntropyBits(const double* counts, const double* terms,
                         size_t nc) {
  double total = 0.0;
  double sum = 0.0;
  for (size_t c = 0; c < nc; ++c) {
    if (counts[c] > 0.0) total += counts[c];
    sum += terms[c];
  }
  if (total <= 0.0) return 0.0;
  const double h = (total * std::log2(total) - sum) / total;
  return h > 0.0 ? h : 0.0;
}

/// A knot of the log2 table: log2 of the mantissa 1 + j / 1024, and the
/// rise to the next knot.
struct Log2Knot {
  double value;
  double slope;
};

constexpr size_t kLog2Intervals = 1024;  // the top 10 mantissa bits
constexpr int kLog2FracBits = 52 - 10;   // the mantissa bits below them

const std::array<Log2Knot, kLog2Intervals> kLog2Knots = [] {
  std::array<Log2Knot, kLog2Intervals> knots{};
  double value = 0.0;  // log2(1)
  for (size_t j = 0; j < kLog2Intervals; ++j) {
    const double next = std::log2(
        1.0 + static_cast<double>(j + 1) / static_cast<double>(kLog2Intervals));
    knots[j] = {value, next - value};
    value = next;
  }
  return knots;
}();

// Why the first pass may leave most candidates unscored. Let K be the
// known weight, u = 2^-53, phi(x) = x log2 x (0 for x <= 0), and for one
// candidate let g be the gain the exact pass computes (the old single
// pass's value, bit for bit) and a = KE - (A(lw) + A(rw) - S) / K its
// approximate gain, where A = ApproxXLog2X, lw and rw are the side weights
// and S sums A over both sides' class counts.
//  1. Approximation. |A(x) - phi(x)| <= x d + u |A(x)| with d =
//     kApproxLog2Error. The arguments of the terms in a's numerator add
//     up to 2K (lw + rw = K, and both sides' class counts to K), so the
//     d parts move a by at most 2d.
//  2. Magnitudes. For 0 < x <= K, |phi(x)| <= x log2+(K) when x >= 1 and
//     1 / (e ln 2) < 0.54 when x < 1, so the 2 nc + 2 terms of one
//     candidate add up to at most M = 2 K log2+(K) + 1.1 (nc + 1); KE K
//     and every partial sum either pass forms are bounded alike.
//  3. Rounding. Each rounded operation errs by at most u times the
//     magnitude it produces. S starts from nc additions and takes four
//     per moved cell, at most nc per bin. A side's class-order total and
//     its bin-order weight sum the same cells in two orders, so they
//     differ by at most 2 u (nc + bins) K, which moves lw log2(total) by
//     at most 1.45 times that. The exact term sums take nc additions a
//     side, and the rest of either formula is a dozen operations. So at
//     most R = 4 nc bins + 8 nc + 4 bins + 16 roundings, each below
//     u (M + 3K), reach g or a.
//  4. The exact pass clamps a side's entropy at zero. The true entropy
//     is non-negative, so the clamp never moves the value away from it.
// Hence |a - g| <= E = 2d + u R (M / K + 3). Let g* be the best exact
// gain, first reached at candidate i*, and a* the best approximate gain:
// a(i*) >= g* - E >= g(j) - E >= a(j) - 2E for every j, so i* lies within
// 2E of a*, and every candidate further below has g < g*. Scoring the
// candidates within 2E exactly, in ascending order with a strict >,
// therefore picks the same first argmax as scoring them all. And g* <=
// a(i*) + E <= a* + E, so when a* + E already fails the gain floor, g*
// fails it too and no candidate needs its exact score.

/// E above for a node of known weight `known` (K) whose classes occupy
/// `bins` non-empty bins, with the rounding part doubled (which also
/// covers rounding a* - 2E and a* + E); infinite when K is too large for
/// the magnitudes to be checked (it never is for row weights) or not a
/// number, so that every candidate is re-scored.
double GainErrorBound(double known, size_t nc, size_t bins) {
  if (!(known <= 0x1p64)) return INFINITY;
  constexpr double u = 0x1p-53;
  const auto n = static_cast<double>(nc);
  const auto b = static_cast<double>(bins);
  const double magnitude =
      2.0 * std::max(0.0, std::log2(known)) + 1.1 * (n + 1.0) / known;
  const double roundings = 4.0 * n * b + 8.0 * n + 4.0 * b + 16.0;
  return 2.0 * kApproxLog2Error + 2.0 * u * roundings * (magnitude + 3.0);
}

}  // namespace

// A normal x is 2^e * m with m in [1, 2): log2 x = e + log2 m, and log2 m
// is interpolated linearly between the knots around m.
double ApproxXLog2X(double x) {
  if (!(x >= DBL_MIN)) return x > 0.0 ? x * std::log2(x) : 0.0;
  const auto bits = std::bit_cast<uint64_t>(x);
  const Log2Knot& knot =
      kLog2Knots[(bits >> kLog2FracBits) & (kLog2Intervals - 1)];
  const double frac =
      static_cast<double>(bits & ((uint64_t{1} << kLog2FracBits) - 1)) *
      0x1p-42;
  const double exponent =
      static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  return x * (exponent + (knot.value + frac * knot.slope));
}

SplitEval SweepBinnedSplit(const double* hist, const uint64_t* occupied,
                           size_t nc, const AttributeBins& bins,
                           double node_weight, double min_split_weight,
                           SweepScratch* s) {
  constexpr double kEps = kTreeWeightEpsilon;
  s->bins.clear();
  s->bin_weights.clear();
  s->candidates.clear();
  s->classes.assign(5 * nc, 0.0);
  double* known_counts = s->classes.data();
  double* left = known_counts + nc;
  double* right = left + nc;
  // The side terms: approximate in the first pass, exact in the second.
  double* left_terms = right + nc;
  double* right_terms = left_terms + nc;
  double known = 0.0;
  // Bins outside the mask hold +0.0 cells, which would leave every sum
  // unchanged: visiting only masked bins, in ascending order, is exact.
  for (size_t w = 0; w < kBinMaskWords; ++w) {
    for (uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
      const size_t b = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      const double* row = hist + b * nc;
      double bw = 0.0;
      for (size_t c = 0; c < nc; ++c) {
        bw += row[c];
        known_counts[c] += row[c];
      }
      known += bw;
      ++s->bins_visited;
      if (bw > 0.0) {
        s->bins.push_back(static_cast<uint32_t>(b));
        s->bin_weights.push_back(bw);
      }
    }
  }
  SplitEval out;
  if (known <= kEps) return out;
  const double known_entropy = EntropyBits(known_counts, nc);
  const size_t num_bins = s->bins.size();

  // Pass 1: exact side counts, approximate terms and their running sum,
  // an approximate gain per admissible candidate.
  double terms_sum = 0.0;
  for (size_t c = 0; c < nc; ++c) {
    right[c] = known_counts[c];
    right_terms[c] = ApproxXLog2X(right[c]);
    terms_sum += right_terms[c];
  }
  double left_w = 0.0;
  double best_approx = -INFINITY;
  uint64_t distinct = 0;
  bool lossy_bins = false;
  for (size_t i = 0; i < num_bins; ++i) {
    const size_t b = s->bins[i];
    // Per-bin distinct-value totals from the global binning; in the
    // per-distinct regime every count is 1 and this is exactly the
    // number of non-empty bins (= the node's distinct values).
    distinct += bins.distinct[b];
    lossy_bins |= bins.distinct[b] > 1;
    if (i > 0) {
      // Candidate threshold between the previous non-empty bin and this
      // one.
      const double right_w = known - left_w;
      if (left_w >= min_split_weight && right_w >= min_split_weight) {
        ++s->candidates_scored;
        const double gain =
            known_entropy -
            (ApproxXLog2X(left_w) + ApproxXLog2X(right_w) - terms_sum) /
                known;
        s->candidates.push_back({static_cast<uint32_t>(i), gain});
        best_approx = std::max(best_approx, gain);
      }
    }
    // A zero cell moves nothing, so its class keeps its counts and terms.
    const double* row = hist + b * nc;
    for (size_t c = 0; c < nc; ++c) {
      if (row[c] == 0.0) continue;
      left[c] += row[c];
      right[c] -= row[c];
      const double lt = ApproxXLog2X(left[c]);
      const double rt = ApproxXLog2X(right[c]);
      terms_sum += (lt - left_terms[c]) + (rt - right_terms[c]);
      left_terms[c] = lt;
      right_terms[c] = rt;
    }
    left_w += s->bin_weights[i];
  }
  if (s->candidates.empty()) return out;
  const double known_frac = known / node_weight;
  double penalty = 0.0;
  if (distinct > 1) {
    // Summing global per-bin counts over-reports distinct values once
    // bins are lossy (a deep node holds a subset of each bin), but the
    // node cannot have more distinct values than known instances --
    // capping by the known weight restores the exact sweep's
    // log2(N - 1) penalty for continuous attributes, where every
    // instance carries a distinct value.
    if (lossy_bins) {
      const auto cap = static_cast<uint64_t>(known + 0.5);
      distinct = std::max(uint64_t{2}, std::min(distinct, cap));
    }
    penalty = std::log2(static_cast<double>(distinct - 1)) / known;
  }
  // The MDL-corrected gain of a raw one; rounding keeps it monotone.
  auto corrected = [&](double raw) {
    const double gain = known_frac * raw;
    return distinct > 1 ? gain - penalty : gain;
  };
  const double bound = GainErrorBound(known, nc, num_bins);
  // No exact gain exceeds best_approx + bound, so when even that fails
  // the gain floor, so does the best candidate, and nothing is re-scored.
  const double ceiling = best_approx + bound;
  if (ceiling <= kEps || corrected(ceiling) <= kEps) return out;

  // Pass 2: replay the same sums up to the last candidate within the
  // window, and score the window's candidates exactly.
  const double window_low = best_approx - 2.0 * bound;
  auto in_window = [window_low](const SweepScratch::Candidate& cand) {
    return !(cand.gain < window_low);
  };
  const auto first = std::find_if(s->candidates.begin(),
                                  s->candidates.end(), in_window);
  const size_t last_at =
      std::find_if(s->candidates.rbegin(), s->candidates.rend(), in_window)
          ->at;
  for (size_t c = 0; c < nc; ++c) {
    left[c] = 0.0;
    right[c] = known_counts[c];
  }
  left_w = 0.0;
  // Before the window no term is needed, so every cell moves: a zero
  // cell leaves both sums as they are (x + 0.0 and x - 0.0 equal x up to
  // the sign of a zero, which neither Term nor a side total can see).
  for (size_t i = 0; i < first->at; ++i) {
    const double* row = hist + s->bins[i] * nc;
    for (size_t c = 0; c < nc; ++c) {
      left[c] += row[c];
      right[c] -= row[c];
    }
    left_w += s->bin_weights[i];
  }
  for (size_t c = 0; c < nc; ++c) {
    left_terms[c] = Term(left[c]);
    right_terms[c] = Term(right[c]);
  }
  double best_gain = -1.0;
  size_t best_i = 0;
  double best_left_w = 0.0;
  auto cand = first;
  for (size_t i = first->at;; ++i) {
    if (cand->at == i) {
      if (in_window(*cand)) {
        ++s->candidates_rescored;
        const double right_w = known - left_w;
        const double sub =
            left_w / known * CachedEntropyBits(left, left_terms, nc) +
            right_w / known * CachedEntropyBits(right, right_terms, nc);
        const double gain = known_entropy - sub;
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
          best_left_w = left_w;
        }
      }
      ++cand;
    }
    if (i == last_at) break;
    const double* row = hist + s->bins[i] * nc;
    for (size_t c = 0; c < nc; ++c) {
      if (row[c] == 0.0) continue;
      left[c] += row[c];
      right[c] -= row[c];
      left_terms[c] = Term(left[c]);
      right_terms[c] = Term(right[c]);
    }
    left_w += s->bin_weights[i];
  }
  if (best_gain <= kEps) return out;
  const double gain = corrected(best_gain);
  if (gain <= kEps) return out;
  const double si_weights[3] = {best_left_w, known - best_left_w,
                                node_weight - known};
  const double split_info =
      EntropyBits(si_weights, node_weight - known > kEps ? 3 : 2);
  out.valid = true;
  out.gain = gain;
  out.gain_ratio = split_info > kEps ? gain / split_info : 0.0;
  out.ordered = true;
  // The midpoint the exact sweep tests between the adjacent values on
  // either side of the boundary.
  out.threshold = std::midpoint(bins.upper[s->bins[best_i - 1]],
                                bins.lower[s->bins[best_i]]);
  return out;
}

}  // namespace dq::kernels
