// Table: columnar (SoA) in-memory relation over a Schema.
//
// Storage is one typed dense vector per attribute — double for numeric,
// int32_t dictionary codes for nominal, int32_t day counts for date — plus
// a per-column null bitmap (bit set = cell is null). The row-major API the
// rest of the pipeline grew up with (cell()/row()/AppendRow) is preserved
// as a thin materialization layer: cell() rebuilds a tagged Value from the
// column payload, row() materializes a std::vector<Value>. Hot paths read
// the typed column accessors (is_null/numeric_at/code_at/ordered_at or the
// whole-column spans) and never touch Value at all.
//
// Null payload convention (what the typed vectors hold for null cells):
// numeric columns store quiet_NaN, nominal columns store -1, date columns
// store 0. The bitmap is authoritative; the sentinels exist so encoders
// can hand out raw column pointers (NaN = missing, -1 = missing) without a
// per-cell bitmap test.

#ifndef DQ_TABLE_TABLE_H_
#define DQ_TABLE_TABLE_H_

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "table/schema.h"
#include "table/value.h"

namespace dq {

using Row = std::vector<Value>;

/// \brief A batch of decoded records in columnar form, ready for a bulk
/// append. Producers that already work record-at-a-time (the CSV decode
/// workers) scatter typed cells into a chunk slot; AppendChunk then moves
/// whole columns into the table in one pass per attribute.
///
/// Slots start out null after Reset(); Set() overwrites one cell. Cells
/// must be null or match the attribute's type; domains are the caller's
/// contract (same as Table::AppendRowUnchecked).
class TableChunk {
 public:
  TableChunk() = default;
  explicit TableChunk(const Schema& schema) { Attach(schema); }

  /// \brief Binds the chunk to a schema (allocates one typed column per
  /// attribute). Must be called before Reset/Set.
  void Attach(const Schema& schema);

  /// \brief Resizes to `rows` slots, all null. Reuses column capacity.
  void Reset(size_t rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return cols_.size(); }

  /// \brief Writes one cell (null or type-matching) into slot `row`.
  void Set(size_t row, size_t attr, const Value& v);

  /// \brief Materializes slot `row` as tagged Values (the streaming-ingest
  /// reservoir sampler reads decoded records straight off the chunk,
  /// before they reach any table).
  Row MaterializeRow(size_t row) const;

 private:
  friend class Table;
  // The dqcol reader fills chunk columns by bulk copy from the file's
  // column payloads (table/columnar.h) instead of per-cell Set calls.
  friend class ColumnarCodec;

  struct Column {
    DataType type = DataType::kNominal;
    std::vector<double> num;     ///< numeric payloads (NaN when null)
    std::vector<int32_t> code;   ///< nominal codes / date days
    std::vector<uint8_t> null_;  ///< 1 = null (byte-wide: chunks are small)
  };

  std::vector<Column> cols_;
  size_t num_rows_ = 0;
};

/// \brief In-memory relation: a Schema plus typed value columns.
///
/// Rows are validated against the schema on AppendRow; cells are null or
/// in-domain by construction.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// \brief Appends a row after checking arity and per-cell domains.
  Status AppendRow(const Row& row);

  /// \brief Appends without domain validation; for internal producers that
  /// guarantee in-domain values (generator hot path). Cells must still be
  /// null or type-matching — the typed columns cannot hold a mismatched
  /// kind (enforced by DQ_DCHECK in debug builds).
  void AppendRowUnchecked(const Row& row);

  /// \brief Column-to-column copy of one row of `src` (same schema); the
  /// fast path for split/pollution row shuffling — no Value materialization.
  void AppendRowFrom(const Table& src, size_t src_row);

  /// \brief Bulk append of a decoded chunk. When `keep` is non-null only
  /// slots with keep[i] != 0 land in the table (in slot order); quarantined
  /// CSV records are dropped this way without re-packing the chunk.
  void AppendChunk(const TableChunk& chunk,
                   const std::vector<uint8_t>* keep = nullptr);

  /// \brief Column-to-column bulk append of every row of `src` (same
  /// schema); the deterministic in-order assembly path segment stores use
  /// to materialize a full table from sealed segments.
  void AppendFrom(const Table& src);

  /// \brief Materializes row `i` as tagged Values. Compat layer: new code
  /// should read the typed accessors instead.
  Row row(size_t i) const;

  /// \brief Materializes cell (row, attr). Unchecked in Release
  /// (DQ_DCHECK'd in debug); see cell_at for the checked variant.
  Value cell(size_t row, size_t attr) const {
    DQ_DCHECK(row < num_rows_ && attr < cols_.size());
    const Column& c = cols_[attr];
    if (BitIsSet(c.nulls, row)) return Value::Null();
    switch (c.type) {
      case DataType::kNumeric:
        return Value::Numeric(c.num[row]);
      case DataType::kNominal:
        return Value::Nominal(c.code[row]);
      case DataType::kDate:
        return Value::Date(c.code[row]);
    }
    return Value::Null();
  }

  /// \brief Bounds-checked cell access for ingest paths and tests; throws
  /// std::out_of_range like the vector::at-based accessor it replaces.
  Value cell_at(size_t row, size_t attr) const;

  /// \brief Overwrites one cell (null or type-matching; domain unchecked).
  void SetCell(size_t row, size_t attr, const Value& v) {
    DQ_DCHECK(row < num_rows_ && attr < cols_.size());
    Column& c = cols_[attr];
    if (v.is_null()) {
      SetBit(&c.nulls, row);
      switch (c.type) {
        case DataType::kNumeric:
          c.num[row] = std::numeric_limits<double>::quiet_NaN();
          break;
        case DataType::kNominal:
          c.code[row] = -1;
          break;
        case DataType::kDate:
          c.code[row] = 0;
          break;
      }
      return;
    }
    ClearBit(&c.nulls, row);
    switch (c.type) {
      case DataType::kNumeric:
        DQ_DCHECK(v.is_numeric());
        c.num[row] = v.numeric();
        break;
      case DataType::kNominal:
        DQ_DCHECK(v.is_nominal());
        c.code[row] = v.nominal_code();
        break;
      case DataType::kDate:
        DQ_DCHECK(v.is_date());
        c.code[row] = v.date_days();
        break;
    }
  }

  // --- Typed column accessors (the hot path) -------------------------------

  bool is_null(size_t row, size_t attr) const {
    DQ_DCHECK(row < num_rows_ && attr < cols_.size());
    return BitIsSet(cols_[attr].nulls, row);
  }
  /// \brief Numeric payload (NaN when null). Numeric columns only.
  double numeric_at(size_t row, size_t attr) const {
    DQ_DCHECK(row < num_rows_ && cols_[attr].type == DataType::kNumeric);
    return cols_[attr].num[row];
  }
  /// \brief Nominal code / date day count (-1 / 0 when null).
  int32_t code_at(size_t row, size_t attr) const {
    DQ_DCHECK(row < num_rows_ && cols_[attr].type != DataType::kNumeric);
    return cols_[attr].code[row];
  }
  /// \brief Ordered axis of a numeric or date cell as a double; NaN when
  /// null (mirrors Value::OrderedValue with NaN for missing).
  double ordered_at(size_t row, size_t attr) const {
    DQ_DCHECK(row < num_rows_ && attr < cols_.size());
    const Column& c = cols_[attr];
    DQ_DCHECK(c.type != DataType::kNominal);
    if (c.type == DataType::kNumeric) return c.num[row];
    return BitIsSet(c.nulls, row) ? std::numeric_limits<double>::quiet_NaN()
                                  : static_cast<double>(c.code[row]);
  }

  /// \brief Whole-column spans. numeric_col: numeric attributes (NaN =
  /// null); code_col: nominal codes (-1 = null) or date day counts.
  const std::vector<double>& numeric_col(size_t attr) const {
    DQ_DCHECK(attr < cols_.size() && cols_[attr].type == DataType::kNumeric);
    return cols_[attr].num;
  }
  const std::vector<int32_t>& code_col(size_t attr) const {
    DQ_DCHECK(attr < cols_.size() && cols_[attr].type != DataType::kNumeric);
    return cols_[attr].code;
  }
  /// \brief Null bitmap words of a column (bit r set = cell r null).
  const std::vector<uint64_t>& null_words(size_t attr) const {
    DQ_DCHECK(attr < cols_.size());
    return cols_[attr].nulls;
  }

  // --- Mutation ------------------------------------------------------------

  /// \brief Removes one row; prefer RemoveRows for sweeps.
  void RemoveRow(size_t i) { RemoveRows({i}); }

  /// \brief Batched stable removal: `sorted_rows` must be ascending and
  /// in-range (duplicates tolerated). One compaction pass per column, so a
  /// sweep deleting m rows costs O(columns * n), not O(m * n).
  void RemoveRows(const std::vector<size_t>& sorted_rows);

  void Reserve(size_t n);
  void Clear();

  /// \brief Heap bytes held by the column payloads, null bitmaps and the
  /// schema's string pool (logical sizes, not capacities — deterministic
  /// across allocators). This is the residency figure memory budgets use.
  size_t byte_size() const;

  /// \brief Validates every cell against the schema (used by tests and
  /// after deserialization / unchecked bulk appends).
  Status Validate() const;

 private:
  // The dqcol codec (table/columnar.h) serializes column payloads verbatim
  // and rebuilds them on load, for dqcol files and segment spills alike, so
  // it sees the raw columns instead of a public raw-mutation API.
  friend class ColumnarCodec;

  struct Column {
    DataType type = DataType::kNominal;
    std::vector<double> num;      ///< kNumeric payloads (NaN when null)
    std::vector<int32_t> code;    ///< kNominal codes / kDate day counts
    std::vector<uint64_t> nulls;  ///< bit r set = cell r is null
  };

  static bool BitIsSet(const std::vector<uint64_t>& bits, size_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1u;
  }
  static void SetBit(std::vector<uint64_t>* bits, size_t i) {
    (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
  }
  static void ClearBit(std::vector<uint64_t>* bits, size_t i) {
    (*bits)[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  /// Grows a bitmap to cover `rows` bits (new bits cleared).
  static void GrowBits(std::vector<uint64_t>* bits, size_t rows) {
    bits->resize((rows + 63) >> 6, 0);
  }

  void PushCell(Column* c, const Value& v);

  Schema schema_;
  std::vector<Column> cols_;
  size_t num_rows_ = 0;
};

}  // namespace dq

#endif  // DQ_TABLE_TABLE_H_
