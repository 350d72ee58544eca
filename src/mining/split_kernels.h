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
// histogram. It refreshes a class's x * log2(x) only when a bin moves its
// weight, yet returns bit for bit what calling EntropyBits at every
// candidate returns (split_kernels_test keeps that loop as its oracle).
// It reads only the bins set in the node's 256-bit occupancy mask: every
// other bin holds +0.0 cells, and adding +0.0 leaves a sum of
// non-negative cells unchanged, so skipping them changes no total.
// The tree grower (C45Grower, c45.cc) sets a mask bit for every bin its
// scans write, and a subtraction child takes its parent's mask. The presort
// those bins derive from is a stable radix sort (SortRowsByValue,
// encoded_dataset.h).

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
  std::vector<uint32_t> bins;       ///< non-empty bins, ascending
  std::vector<double> bin_weights;  ///< their totals
  std::vector<double> classes;  ///< per class: totals, sides, side terms
  uint64_t bins_visited = 0;       ///< masked bins read (c45.sweep_bins)
  uint64_t candidates_scored = 0;  ///< thresholds scored
};

/// \brief C4.5 threshold sweep over `hist`, the (bins.num_bins x nc)
/// histogram of a node weighing `node_weight`, reading only the bins set
/// in `occupied` (kBinMaskWords words; every other bin must hold +0.0
/// cells): candidates are midpoints between adjacent non-empty bins with
/// at least `min_split_weight` on either side. Gains carry the MDL
/// correction.
SplitEval SweepBinnedSplit(const double* hist, const uint64_t* occupied,
                           size_t nc, const AttributeBins& bins,
                           double node_weight, double min_split_weight,
                           SweepScratch* scratch);

}  // namespace dq::kernels

#endif  // DQ_MINING_SPLIT_KERNELS_H_
