// EncodedDataset: the audit-wide encode cache, and the only training input
// of every inducer (TrainingData::encoded).
//
// The multiple classification pass (sec. 5) induces one dependency model
// per attribute over the same table. This cache is built ONCE per audit
// (a standalone Train builds its own) and shared read-only across all
// parallel inductions, so no Train call encodes, sorts or bins anything:
//
//   * column views — for every ordered attribute a dense double column
//     (NaN = null), for every nominal attribute a dense int32 code column
//     (-1 = null). Numeric and nominal views alias the Table's own SoA
//     columns (zero copy); date columns are widened to double once.
//   * sort orders — per ordered attribute, the row indices with known
//     values stable-sorted by value (SLIQ-style), by a radix sort over
//     order-preserving keys (SortRowsByValue). The exact C4.5 sweep
//     derives its root instance lists by filtering this order to its
//     class-known rows, O(n) per attribute.
//   * value bins — per ordered attribute, at most kMaxHistogramBins
//     equal-frequency bins derived from the sort order, read by the
//     histogram split evaluator.
//   * class encodings — per attribute, the fitted ClassEncoder (nominal
//     identity or equal-frequency bins) and the dense encoded class-code
//     column (-1 = null), so no Train call re-discretizes or re-encodes.
//
// Determinism: every field is a pure per-attribute function of the table,
// built into pre-assigned slots — identical for every thread count.

#ifndef DQ_MINING_ENCODED_DATASET_H_
#define DQ_MINING_ENCODED_DATASET_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "mining/class_encoder.h"
#include "mining/histogram.h"
#include "table/table.h"

namespace dq {

class ThreadPool;

/// \brief The rows of `col` (n values, NaN = null) with a known value, in
/// ascending value order with ties in row order: what std::stable_sort by
/// `<` makes of the known rows listed in row order (-0.0 and +0.0 tie).
/// A stable LSD radix sort over order-preserving 64-bit keys.
std::vector<uint32_t> SortRowsByValue(const double* col, size_t n);

class EncodedDataset {
 public:
  /// \brief Builds the cache for `table`. `numeric_class_bins` parameterizes
  /// the equal-frequency class discretization of ordered attributes
  /// (AuditorConfig::numeric_class_bins); attribute encoders that cannot be
  /// fitted (ordered attribute with no non-null values) are left empty and
  /// the corresponding attribute simply cannot serve as a class attribute.
  /// Each attribute is one item on `pool` (inline without one); the
  /// result is identical for every pool size. The views alias `table`,
  /// which must outlive the cache.
  static EncodedDataset Build(const Table& table, int numeric_class_bins,
                              ThreadPool* pool = nullptr);

  const Table* table() const { return table_; }
  size_t num_rows() const { return num_rows_; }

  /// \brief Ordered view of attribute `a` (numeric or date): value as
  /// double, NaN = null. nullptr for nominal attributes.
  const double* ordered_col(size_t a) const { return ordered_[a]; }
  /// \brief Nominal code view of attribute `a`: code, -1 = null. nullptr
  /// for ordered attributes.
  const int32_t* nominal_col(size_t a) const { return nominal_[a]; }

  /// \brief Rows with a known (non-null) value of ordered attribute `a`,
  /// stable-sorted ascending by value (ties in row order). Empty for
  /// nominal attributes.
  const std::vector<uint32_t>& sort_order(size_t a) const {
    return sort_orders_[a];
  }

  /// \brief Equal-frequency value bins of ordered attribute `a`, derived
  /// once from sort_order(a) for the histogram split evaluator. nullptr
  /// for nominal attributes; num_bins == 0 when the column has no known
  /// values.
  const AttributeBins* bins(size_t a) const {
    return ordered_[a] != nullptr ? &bins_[a] : nullptr;
  }

  /// \brief Fitted class encoder for attribute `a`; empty when the
  /// attribute cannot be a class attribute (unfittable discretizer).
  const std::optional<ClassEncoder>& encoder(size_t a) const {
    return encoders_[a];
  }
  /// \brief Encoded class codes of attribute `a` under encoder(a), one per
  /// row, -1 = null. Aliases the table's code column for nominal attributes
  /// (identity encoding); nullptr when encoder(a) is empty.
  const int32_t* class_codes(size_t a) const { return class_code_views_[a]; }

 private:
  const Table* table_ = nullptr;
  size_t num_rows_ = 0;
  std::vector<const double*> ordered_;
  std::vector<const int32_t*> nominal_;
  /// Owned widened columns backing ordered_ for date attributes, and owned
  /// bin codes backing class_code_views_ for ordered class attributes.
  /// Moving an EncodedDataset moves the vectors (heap buffers stay put),
  /// so the view pointers stay valid.
  std::vector<std::vector<double>> date_storage_;
  std::vector<std::vector<uint32_t>> sort_orders_;
  std::vector<AttributeBins> bins_;
  std::vector<std::optional<ClassEncoder>> encoders_;
  std::vector<std::vector<int32_t>> class_code_storage_;
  std::vector<const int32_t*> class_code_views_;
};

}  // namespace dq

#endif  // DQ_MINING_ENCODED_DATASET_H_
