#include "mining/sample.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"

namespace dq {

ReservoirSampler::ReservoirSampler(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  DQ_DCHECK(capacity > 0);
  slots_.reserve(capacity);
}

Row* ReservoirSampler::Admit() {
  const uint64_t index = rows_seen_++;
  if (slots_.size() < capacity_) {
    slots_.emplace_back(index, Row());
    return &slots_.back().second;
  }
  // Exactly one draw per overflowing row: j uniform in [0, index]; the row
  // enters the reservoir iff j lands in the first k slots. Chunk boundaries
  // never touch the RNG, so the sample is chunking-invariant.
  const auto j = static_cast<uint64_t>(
      rng_.UniformInt(0, static_cast<int64_t>(index)));
  if (j >= capacity_) return nullptr;
  slots_[static_cast<size_t>(j)].first = index;
  return &slots_[static_cast<size_t>(j)].second;
}

void ReservoirSampler::OfferChunk(const TableChunk& chunk,
                                  const std::vector<uint8_t>& keep) {
  for (size_t i = 0; i < chunk.num_rows(); ++i) {
    if (keep[i] == 0) continue;
    if (Row* slot = Admit()) chunk.MaterializeRow(i, slot);
  }
}

Table ReservoirSampler::BuildSampleTable(const Schema& schema) const {
  obs::Span span("stream.sample");
  std::vector<const std::pair<uint64_t, Row>*> ordered;
  ordered.reserve(slots_.size());
  for (const auto& slot : slots_) ordered.push_back(&slot);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  Table out(schema);
  out.Reserve(ordered.size());
  for (const auto* slot : ordered) {
    // Rows came off decoded, schema-validated chunks; re-validating every
    // cell here would double ingest's domain-check cost.
    out.AppendRowUnchecked(slot->second);
  }
  return out;
}

}  // namespace dq
