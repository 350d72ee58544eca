// Reservoir sampling for memory-bounded structure induction.
//
// The streaming audit cannot hand the inducers the whole table — that is
// the table it refuses to hold in RAM. Instead it trains on a uniform
// sample drawn during ingest with Algorithm R (Vitter): keep the first k
// rows, then replace a random slot with probability k/i for row i. The
// sample is itself a columnar Table (plus each slot's stream index) that
// admitted records are copied into straight from the ingest chunk, and
// the EncodedDataset the inducers build is bounded by the sample size,
// not the input size.
//
// Determinism: the sampler draws exactly one RNG value per row past the
// first k, keyed only by the global row sequence — never by chunk
// boundaries — so the sample is identical for any chunking of the same
// record stream and for every thread count (rows are offered serially, in
// record order). When k >= n the reservoir degenerates to the full input
// in original order, which makes the streaming audit's model bitwise equal
// to the classic in-memory path's.

#ifndef DQ_MINING_SAMPLE_H_
#define DQ_MINING_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "table/table.h"

namespace dq {

/// \brief Uniform k-of-n row sample maintained online (Algorithm R).
class ReservoirSampler {
 public:
  /// `capacity` must be > 0; `seed` pins the sample for reproducibility.
  /// Offered chunks and the sample table have `schema`.
  ReservoirSampler(const Schema& schema, size_t capacity, uint64_t seed);

  /// \brief Offers the kept rows of a decoded chunk (keep[i] != 0), in row
  /// order; chunks must arrive in global record order (the caller's
  /// serial ingest loop guarantees this). The draw comes first; only an
  /// admitted record is copied, column to column, into its sample slot.
  void OfferChunk(const Table& chunk, const std::vector<uint8_t>& keep);

  size_t rows_seen() const { return rows_seen_; }
  size_t sample_size() const { return sample_.num_rows(); }

  /// \brief The sample as a table, rows sorted by their original stream
  /// position (so equal seeds give identical tables no matter when the
  /// sample is read out). Records a `stream.sample` span.
  Table BuildSampleTable() const;

 private:
  size_t capacity_;
  Rng rng_;
  size_t rows_seen_ = 0;
  /// The sample slots, unordered until BuildSampleTable, and the global
  /// row index of the record each slot holds.
  Table sample_;
  std::vector<uint64_t> stream_index_;
};

}  // namespace dq

#endif  // DQ_MINING_SAMPLE_H_
