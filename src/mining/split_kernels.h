// Joint-count kernels for the C4.5 split search (histogram mode).
//
// The histogram split evaluator scans each whole column once at the tree
// root, accumulating joint (bin, class) counts over dense code columns.
// Those root scans live here as plain scalar loops, one body each. The
// increments are a scatter whose indices can collide, so SIMD can only
// compute the indices, which saves a few microseconds per 20k-row column:
// too little to show end to end (EXPERIMENTS.md). split_kernels_test
// checks each kernel against a naive count.

#ifndef DQ_MINING_SPLIT_KERNELS_H_
#define DQ_MINING_SPLIT_KERNELS_H_

#include <cstddef>
#include <cstdint>

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

}  // namespace dq::kernels

#endif  // DQ_MINING_SPLIT_KERNELS_H_
