// Kernels of the C4.5 split search (histogram mode).
//
// The histogram split evaluator scans each whole column once at the tree
// root, accumulating joint (bin, class) counts over dense code columns.
// Those root scans live here as plain scalar loops, one body each. The
// increments are a scatter whose indices can collide, so SIMD can only
// compute the indices, which saves a few microseconds per 20k-row column:
// too little to show end to end (EXPERIMENTS.md). split_kernels_test
// checks each kernel against a naive count.
//
// SweepBinnedSplit is the threshold sweep over one node's (bin x class)
// histogram, and it returns bit for bit what calling EntropyBits at every
// candidate returns (split_kernels_test keeps that loop as its oracle).
// It reads only the bins set in the node's 256-bit occupancy mask: every
// other bin holds +0.0 cells, and adding +0.0 leaves a sum of
// non-negative cells unchanged, so skipping them changes no total. The
// tree grower (C45Grower, c45.cc) sets a mask bit for every bin its
// scans write, and a subtraction child takes its parent's. The presort
// those bins derive from is a stable radix sort (SortRowsByValue,
// encoded_dataset.h).
//
// The sweep runs in two passes. The first keeps the exact running class
// sums of both sides but scores every candidate from x * log2(x) terms
// whose log2 is read off a 1024-interval table (ApproxXLog2X), with a
// proven bound on the gain's error. Only a candidate whose approximate
// gain lies within twice that bound of the best approximate gain can be
// the exact argmax, so the second pass replays the sums and scores just
// those candidates with std::log2, in ascending order, as the old
// single pass did; when even the best approximate gain plus the bound
// fails the gain floor, no candidate is scored again (split_kernels.cc
// has the derivation). c45.sweep_rescored counts the exact scores.

#ifndef DQ_MINING_SPLIT_KERNELS_H_
#define DQ_MINING_SPLIT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mining/histogram.h"

namespace dq::kernels {

/// \brief Name of the count-kernel body this build runs: always "scalar"
/// (the benchmarks print it in their machine fingerprint).
const char* SimdLevel();

// All kernels ADD into `out` (callers zero it); rows with a negative class
// code are skipped, as are rows with a null attribute code (0xFF bin code
// resp. negative nominal code).

/// \brief out[bins[r] * nc + cls[r]] += 1 over all rows; bins[r] == 0xFF
/// (null) and cls[r] < 0 rows are skipped.
void CountBinClass(const uint8_t* bins, const int32_t* cls, size_t n,
                   size_t nc, uint32_t* out);

/// \brief out[codes[r] * nc + cls[r]] += 1 over all rows; codes[r] < 0
/// (null) and cls[r] < 0 rows are skipped.
void CountCodeClass(const int32_t* codes, const int32_t* cls, size_t n,
                    size_t nc, uint32_t* out);

/// \brief out[cls[r]] += 1 over all rows with cls[r] >= 0.
void CountClasses(const int32_t* cls, size_t n, uint32_t* out);

/// \brief A scored candidate split of one attribute; `valid` is false
/// when no candidate beats the gain floor.
struct SplitEval {
  bool valid = false;
  double gain = 0.0;
  double gain_ratio = 0.0;
  bool ordered = false;    ///< threshold split (else nominal)
  double threshold = 0.0;  ///< ordered splits: value <= threshold goes left
};

/// \brief 64-bit words of a bin occupancy mask: bit b of word b / 64 is
/// set when bin b may hold weight (kMaxHistogramBins < 256 bins).
inline constexpr size_t kBinMaskWords = 4;

/// \brief Buffers SweepBinnedSplit reuses from call to call, and its
/// work totals over all calls.
struct SweepScratch {
  /// A threshold the first pass scored: left of the non-empty bin
  /// `bins[at]`, with approximate gain `gain`.
  struct Candidate {
    uint32_t at = 0;
    double gain = 0.0;
  };
  std::vector<uint32_t> bins;       ///< non-empty bins, ascending
  std::vector<double> bin_weights;  ///< their totals
  std::vector<double> classes;  ///< per class: totals, sides, side terms
  std::vector<Candidate> candidates;  ///< admissible thresholds, ascending
  uint64_t bins_visited = 0;       ///< masked bins read (c45.sweep_bins)
  uint64_t candidates_scored = 0;  ///< thresholds scored
  uint64_t candidates_rescored = 0;  ///< exact re-scores (c45.sweep_rescored)
};

/// \brief Bound on |log2 x - l(x)| for every normal double x, where l is
/// ApproxXLog2X's log2: linear interpolation between knots 2^-10 apart
/// on the mantissa errs by at most 2^-20 / (8 ln 2) = 1.71982e-7, and
/// rounding in the table and the interpolation adds less than 1e-13.
inline constexpr double kApproxLog2Error = 1.72e-7;

/// \brief x * l(x) for normal x > 0, where l(x) is log2 x read off a
/// 1024-interval table of the mantissa (within kApproxLog2Error); x *
/// std::log2(x) for subnormal x, and 0 for x <= 0 or NaN.
double ApproxXLog2X(double x);

/// \brief C4.5 threshold sweep over `hist`, the (bins.num_bins x nc)
/// histogram of a node weighing `node_weight`, reading only the bins set
/// in `occupied` (kBinMaskWords words; every other bin must hold +0.0
/// cells): candidates are midpoints between adjacent non-empty bins with
/// at least `min_split_weight` on either side. Gains carry the MDL
/// correction. Cells are weights, so none may be negative.
SplitEval SweepBinnedSplit(const double* hist, const uint64_t* occupied,
                           size_t nc, const AttributeBins& bins,
                           double node_weight, double min_split_weight,
                           SweepScratch* scratch);

}  // namespace dq::kernels

#endif  // DQ_MINING_SPLIT_KERNELS_H_
