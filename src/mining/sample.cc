#include "mining/sample.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "obs/trace.h"

namespace dq {

ReservoirSampler::ReservoirSampler(const Schema& schema, size_t capacity,
                                   uint64_t seed)
    : capacity_(capacity), rng_(seed), sample_(schema) {
  DQ_DCHECK(capacity > 0);
}

void ReservoirSampler::OfferChunk(const Table& chunk,
                                  const std::vector<uint8_t>& keep) {
  for (size_t i = 0; i < chunk.num_rows(); ++i) {
    if (keep[i] == 0) continue;
    const uint64_t index = rows_seen_++;
    if (sample_.num_rows() < capacity_) {
      sample_.AppendRowFrom(chunk, i);
      stream_index_.push_back(index);
      continue;
    }
    // Exactly one draw per overflowing row: j uniform in [0, index]; the
    // row enters the reservoir iff j lands in the first k slots. Chunk
    // boundaries never touch the RNG, so the sample is chunking-invariant.
    const auto j = static_cast<uint64_t>(
        rng_.UniformInt(0, static_cast<int64_t>(index)));
    if (j >= capacity_) continue;
    const auto slot = static_cast<size_t>(j);
    for (size_t a = 0; a < chunk.num_attributes(); ++a) {
      sample_.SetCell(slot, a, chunk.cell(i, a));
    }
    stream_index_[slot] = index;
  }
}

Table ReservoirSampler::BuildSampleTable() const {
  obs::Span span("stream.sample");
  std::vector<size_t> order(sample_.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return stream_index_[a] < stream_index_[b];
  });
  Table out(sample_.schema());
  out.Reserve(order.size());
  for (size_t slot : order) out.AppendRowFrom(sample_, slot);
  return out;
}

}  // namespace dq
