// SegmentStore: a chunked columnar store whose segments live in RAM or
// spill to disk under a memory budget.
//
// Ingest appends decoded chunks (Tables of the store's schema) into an
// open segment, itself a Table; once the open segment reaches
// segment_rows it is sealed and becomes immutable. Sealed segments are
// the paging unit: when resident bytes exceed memory_budget_bytes the
// store writes the oldest unpinned resident segment to a dqcol v1 scratch
// file (table/columnar.h, docs/FORMATS.md) and frees its columns. Pin()
// brings a spilled segment back through the dqcol reader's codec core, so
// a reload gets the same schema and per-cell domain checks as a dqcol
// ingest but does not count as ingest. Because sealed segments never
// change, the spill file is written once and re-eviction is a free drop
// of the in-memory copy. Segment boundaries depend only on the record
// sequence — never on the budget — so any consumer that walks segments in
// order sees bitwise identical data whether nothing, some, or everything
// spilled.
//
// Residency accounting uses Table::byte_size() (column payloads + null
// bitmaps + schema string pool), published through the segstore.* metrics.

#ifndef DQ_TABLE_SEGMENT_STORE_H_
#define DQ_TABLE_SEGMENT_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace dq {

struct SegmentStoreOptions {
  /// Rows per sealed segment. The open segment seals at the first chunk
  /// boundary at or past this many rows, so actual segment sizes may
  /// overshoot by up to one ingest batch.
  size_t segment_rows = 65536;

  /// Resident-byte cap across all segments; 0 = unlimited (never spill).
  uint64_t memory_budget_bytes = 0;

  /// Directory for spill files (created if missing). Required when
  /// memory_budget_bytes > 0.
  std::string spill_dir;
};

/// \brief Spillable sequence of immutable columnar segments.
///
/// Lifecycle: Append() chunks in record order, then Finish() exactly once
/// (seals the open segment), then Pin()/Unpin() segments for reading.
/// Not thread-safe; callers serialize.
class SegmentStore {
 public:
  SegmentStore(Schema schema, SegmentStoreOptions options);

  /// Spill files are scratch owned by this store; the destructor deletes
  /// them, and then the spill directory when it is empty and the store
  /// created it or spilled into it.
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Spill and residency traffic of one store instance. The same numbers
  /// feed the process-wide segstore.* metrics; tests read them here so they
  /// are not polluted by other stores in the process.
  struct Stats {
    uint64_t segments_sealed = 0;
    uint64_t spill_writes = 0;        ///< segment files written (first evictions)
    uint64_t spill_bytes_written = 0;
    uint64_t spill_reads = 0;         ///< segment loads from disk (Pin misses)
    uint64_t spill_bytes_read = 0;
    uint64_t evictions = 0;           ///< residents dropped (incl. re-evictions)
    uint64_t resident_bytes_peak = 0;
  };

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_segments() const { return segments_.size(); }
  const Stats& stats() const { return stats_; }
  uint64_t resident_bytes() const { return resident_bytes_; }

  /// First global row index of segment `i` (segments partition [0,
  /// num_rows) in order).
  size_t segment_base_row(size_t i) const { return segments_[i].base_row; }
  size_t segment_num_rows(size_t i) const { return segments_[i].rows; }
  bool segment_resident(size_t i) const {
    return segments_[i].table.has_value();
  }

  /// \brief Appends the kept rows of a decoded chunk (keep == nullptr
  /// keeps all) to the open segment with Table::Append, sealing and
  /// possibly spilling when the open segment fills.
  Status Append(const Table& chunk,
                const std::vector<uint8_t>* keep = nullptr);

  /// \brief Moves `table` (same schema) in as one sealed segment, even an
  /// empty one; Finish enforces the budget. The open segment must be empty.
  Status AppendTable(Table table);

  /// \brief Seals the open segment (if non-empty) and enforces the budget.
  /// Must be called once, after the last Append and before any Pin.
  Status Finish();

  /// \brief Returns segment `i` resident, loading it from its spill file if
  /// needed, and holds it resident until the matching Unpin. Pins nest.
  Result<const Table*> Pin(size_t i);

  /// \brief Releases a pin and re-enforces the budget (a reloaded segment
  /// over budget is dropped again; its spill file already exists).
  Status Unpin(size_t i);

 private:
  struct Segment {
    size_t base_row = 0;
    size_t rows = 0;
    uint64_t bytes = 0;          ///< byte_size at seal time (stable: immutable)
    std::optional<Table> table;  ///< resident copy; nullopt when evicted
    bool on_disk = false;        ///< spill file written (write-once)
    int pins = 0;
    std::string path;
  };

  Status SealOpen();
  Status EnforceBudget();
  Status SpillSegment(Segment* seg);
  Status LoadSegment(Segment* seg);
  void PublishGauges();

  Schema schema_;
  SegmentStoreOptions options_;
  Table open_;              ///< the one mutable segment, appended into
  uint64_t open_bytes_ = 0; ///< open_.byte_size(), cached per Append
  std::vector<Segment> segments_;
  size_t num_rows_ = 0;
  uint64_t resident_bytes_ = 0;  ///< sealed residents + open segment
  bool finished_ = false;
  bool created_spill_dir_ = false;
  Stats stats_;
};

}  // namespace dq

#endif  // DQ_TABLE_SEGMENT_STORE_H_
