// Per-attribute value binning for the histogram split evaluator
// (LightGBM-style, sec. 5.1 adjusted): every ordered attribute is bucketed
// once per table into at most 255 equal-frequency bins whose boundaries
// never cut through a run of equal values, and every row carries its bin
// code as a uint8 (0xFF = null). Tree nodes then evaluate threshold splits
// by scanning (bin x class) histograms instead of the exact SLIQ row
// sweep, and candidate thresholds fall on the midpoints between adjacent
// non-empty bins -- exactly the thresholds the exact sweep would test when
// an attribute has at most `max_bins` distinct values (each value gets its
// own bin then, making the two evaluators bit-identical on null-free
// data; see c45_histogram_test).

#ifndef DQ_MINING_HISTOGRAM_H_
#define DQ_MINING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dq {

/// \brief Bin code marking a null value (row excluded from histograms).
inline constexpr uint8_t kNullBinCode = 0xFF;

/// \brief Maximum representable bins (0xFF is reserved for null).
inline constexpr int kMaxHistogramBins = 255;

/// \brief Equal-frequency value bins of one ordered attribute.
struct AttributeBins {
  /// Number of bins; 0 when the column has no known values (the attribute
  /// then cannot split and histogram consumers skip it).
  int num_bins = 0;
  /// Per-row bin code, kNullBinCode for null values.
  std::vector<uint8_t> codes;
  /// Smallest / largest attribute value that falls into each bin; split
  /// thresholds between bins b and b' are std::midpoint(upper[b],
  /// lower[b']), the same midpoint rule the exact sweep uses between
  /// adjacent values.
  std::vector<double> lower;
  std::vector<double> upper;
  /// Distinct attribute values swallowed by each bin (always 1 in the
  /// per-distinct regime). The MDL numeric-split correction needs the
  /// distinct-value count, which the histogram alone under-reports once
  /// bins hold more than one value; summing these per-bin counts over a
  /// node's non-empty bins (capped by the node's known weight) restores
  /// the exact penalty for continuous attributes.
  std::vector<uint32_t> distinct;
};

/// \brief Builds equal-frequency bins for the column `col` (NaN = null)
/// from its presorted known-value row order (stable (value, row), the
/// EncodedDataset sort order). When the column has at most `max_bins`
/// distinct values every distinct value receives its own bin; otherwise
/// bins target equal row counts but never split a run of equal values, so
/// the result has at most `max_bins` bins either way. Pure function of
/// (col, order): identical for every thread count.
AttributeBins BuildAttributeBins(const double* col,
                                 const std::vector<uint32_t>& order,
                                 size_t num_rows, int max_bins);

}  // namespace dq

#endif  // DQ_MINING_HISTOGRAM_H_
