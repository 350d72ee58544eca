// Reservoir sampling for memory-bounded structure induction.
//
// The streaming audit cannot hand the inducers the whole table — that is
// the table it refuses to hold in RAM. Instead it trains on a uniform
// sample drawn during ingest with Algorithm R (Vitter): keep the first k
// rows, then replace a random slot with probability k/i for row i. The
// EncodedDataset the inducers build is therefore bounded by the sample
// size, not the input size.
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
#include <utility>
#include <vector>

#include "common/random.h"
#include "table/table.h"

namespace dq {

/// \brief Uniform k-of-n row sample maintained online (Algorithm R).
class ReservoirSampler {
 public:
  /// `capacity` must be > 0; `seed` pins the sample for reproducibility.
  ReservoirSampler(size_t capacity, uint64_t seed);

  /// \brief Offers the next row of the stream. Rows must arrive in global
  /// record order (the caller's serial ingest loop guarantees this).
  void Offer(const Row& row) {
    if (Row* slot = Admit()) *slot = row;
  }

  /// \brief Offers the kept slots of a decoded chunk (keep[i] != 0), in
  /// slot order. The draw comes first; only an admitted record is
  /// materialized, straight into its sample slot.
  void OfferChunk(const TableChunk& chunk, const std::vector<uint8_t>& keep);

  size_t rows_seen() const { return rows_seen_; }
  size_t sample_size() const { return slots_.size(); }

  /// \brief Materializes the sample as a table, rows sorted by their
  /// original stream position (so equal seeds give identical tables no
  /// matter when the sample is read out). Records a `stream.sample` span.
  Table BuildSampleTable(const Schema& schema) const;

 private:
  /// Draws for the next row of the stream: the sample slot it replaces
  /// (or fills), or nullptr when the row stays out.
  Row* Admit();

  size_t capacity_;
  Rng rng_;
  size_t rows_seen_ = 0;
  /// (global row index, row) pairs; unordered until BuildSampleTable.
  std::vector<std::pair<uint64_t, Row>> slots_;
};

}  // namespace dq

#endif  // DQ_MINING_SAMPLE_H_
