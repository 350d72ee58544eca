#include "mining/encoded_dataset.h"

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq {

namespace {

/// Order-preserving key of a non-NaN double: a < b exactly when
/// OrderKey(a) < OrderKey(b), and -0.0 keys as +0.0 (the two compare
/// equal under `<`). Flipping every bit of a negative reverses its order;
/// setting the sign bit of a non-negative lifts it above all negatives.
uint64_t OrderKey(double v) {
  const auto bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

std::vector<uint32_t> SortRowsByValue(const double* col, size_t n) {
  // LSD radix sort, one key byte per pass. Each pass is a stable counting
  // sort, so rows with equal keys keep their row order -- the order
  // std::stable_sort by `<` leaves them in. Keys are recomputed from the
  // column in each pass rather than stored, so the sort needs no more
  // memory than the result and one buffer of the same size. A pass whose
  // byte is the same for every key would move nothing and is skipped.
  constexpr size_t kPasses = sizeof(uint64_t);
  std::array<std::array<uint32_t, 256>, kPasses> counts{};
  std::vector<uint32_t> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (std::isnan(col[r])) continue;
    const uint64_t key = OrderKey(col[r]);
    for (size_t p = 0; p < kPasses; ++p) ++counts[p][(key >> (8 * p)) & 0xFF];
    rows.push_back(static_cast<uint32_t>(r));
  }
  const size_t m = rows.size();
  if (m < 2) return rows;
  std::vector<uint32_t> out(m);
  for (size_t p = 0; p < kPasses; ++p) {
    std::array<uint32_t, 256>& pos = counts[p];
    const size_t shift = 8 * p;
    if (pos[(OrderKey(col[rows[0]]) >> shift) & 0xFF] == m) continue;
    uint32_t start = 0;
    for (uint32_t& c : pos) start += std::exchange(c, start);
    for (const uint32_t r : rows) {
      out[pos[(OrderKey(col[r]) >> shift) & 0xFF]++] = r;
    }
    rows.swap(out);
  }
  return rows;
}

EncodedDataset EncodedDataset::Build(const Table& table,
                                     int numeric_class_bins,
                                     ThreadPool* pool) {
  obs::Span span("audit.encode");
  obs::GetCounter("audit.encode_builds")->Add(1);
  obs::GetGauge("table.bytes")->Set(static_cast<double>(table.byte_size()));

  const Schema& schema = table.schema();
  const size_t k = schema.num_attributes();
  const size_t n = table.num_rows();

  EncodedDataset out;
  out.table_ = &table;
  out.num_rows_ = n;
  out.ordered_.assign(k, nullptr);
  out.nominal_.assign(k, nullptr);
  out.date_storage_.resize(k);
  out.sort_orders_.resize(k);
  out.bins_.resize(k);
  out.encoders_.resize(k);
  out.class_code_storage_.resize(k);
  out.class_code_views_.assign(k, nullptr);

  // Each attribute's views, sort order and encoder depend only on that
  // attribute's column: one item per attribute, into its own slots.
  RunBatch(pool, k, [&](size_t a) {
    const AttributeDef& def = schema.attribute(a);
    std::optional<EqualFrequencyDiscretizer> disc;  // ordered class bins
    if (def.type == DataType::kNominal) {
      out.nominal_[a] = table.code_col(a).data();
    } else {
      if (def.type == DataType::kNumeric) {
        out.ordered_[a] = table.numeric_col(a).data();
      } else {
        // Widen day counts to the shared double axis once (NaN = null).
        std::vector<double>& col = out.date_storage_[a];
        col.resize(n);
        const std::vector<int32_t>& days = table.code_col(a);
        for (size_t r = 0; r < n; ++r) {
          col[r] = table.is_null(r, a)
                       ? std::numeric_limits<double>::quiet_NaN()
                       : static_cast<double>(days[r]);
        }
        out.ordered_[a] = col.data();
      }
      // SLIQ presort: known-value rows in stable (value, row) order.
      const double* col = out.ordered_[a];
      std::vector<uint32_t>& order = out.sort_orders_[a];
      order = SortRowsByValue(col, n);
      // Histogram-evaluator value bins, derived from the fresh sort order
      // (one pass; the order already carries the (value, row) ranking).
      out.bins_[a] = BuildAttributeBins(col, order, n, kMaxHistogramBins);
      // The class discretizer fits from the presorted values: the sample
      // ClassEncoder::Fit would sort, already in order.
      std::vector<double> sorted(order.size());
      for (size_t i = 0; i < order.size(); ++i) sorted[i] = col[order[i]];
      auto fitted =
          EqualFrequencyDiscretizer::FitSorted(sorted, numeric_class_bins);
      if (!fitted.ok()) return;  // e.g. all-null ordered attribute
      disc = std::move(*fitted);
    }

    // Class encoding. Nominal attributes encode as the identity over the
    // dictionary codes, so the table's own column IS the code vector.
    auto encoder =
        ClassEncoder::FromParts(schema, static_cast<int>(a), std::move(disc));
    if (!encoder.ok()) return;
    out.encoders_[a] = std::move(*encoder);
    if (def.type == DataType::kNominal) {
      out.class_code_views_[a] = table.code_col(a).data();
    } else {
      std::vector<int32_t>& codes = out.class_code_storage_[a];
      codes.resize(n);
      const double* col = out.ordered_[a];
      const ClassEncoder& enc = *out.encoders_[a];
      for (size_t r = 0; r < n; ++r) {
        codes[r] = std::isnan(col[r])
                       ? -1
                       : enc.EncodeOrdered(col[r]);
      }
      out.class_code_views_[a] = codes.data();
    }
  });
  return out;
}

}  // namespace dq
