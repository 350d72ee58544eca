#include "mining/split_kernels.h"

#include <algorithm>
#include <bit>
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

}  // namespace

SplitEval SweepBinnedSplit(const double* hist, const uint64_t* occupied,
                           size_t nc, const AttributeBins& bins,
                           double node_weight, double min_split_weight,
                           SweepScratch* s) {
  constexpr double kEps = kTreeWeightEpsilon;
  s->bins.clear();
  s->bin_weights.clear();
  s->classes.assign(5 * nc, 0.0);
  double* known_counts = s->classes.data();
  double* left = known_counts + nc;
  double* right = left + nc;
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
  for (size_t c = 0; c < nc; ++c) {
    right[c] = known_counts[c];
    right_terms[c] = Term(right[c]);
  }
  double left_w = 0.0;
  double best_gain = -1.0;
  size_t best_i = 0;
  double best_left_w = 0.0;
  uint64_t distinct = 0;
  bool lossy_bins = false;
  for (size_t i = 0; i < s->bins.size(); ++i) {
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
    }
    // A zero cell moves nothing, so its class keeps its counts and terms.
    const double* row = hist + b * nc;
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
  const double known_frac = known / node_weight;
  double gain = known_frac * best_gain;
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
    gain -= std::log2(static_cast<double>(distinct - 1)) / known;
  }
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
