#include "table/segment_store.h"

#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/columnar.h"

namespace dq {

SegmentStore::SegmentStore(Schema schema, SegmentStoreOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      open_(schema_) {
  open_bytes_ = open_.byte_size();
  resident_bytes_ = open_bytes_;
  stats_.resident_bytes_peak = resident_bytes_;
}

SegmentStore::~SegmentStore() {
  std::error_code ec;
  bool any = false;
  for (const Segment& seg : segments_) {
    if (!seg.on_disk) continue;
    std::filesystem::remove(seg.path, ec);
    any = true;
  }
  if ((any || created_spill_dir_) && !options_.spill_dir.empty()) {
    // Only removes the directory when nothing else lives there.
    std::filesystem::remove(options_.spill_dir, ec);
  }
}

Status SegmentStore::Append(const Table& chunk,
                            const std::vector<uint8_t>* keep) {
  DQ_DCHECK(!finished_);
  open_.Append(chunk, keep);
  const uint64_t new_bytes = open_.byte_size();
  resident_bytes_ += new_bytes - open_bytes_;
  open_bytes_ = new_bytes;
  num_rows_ = segments_.empty()
                  ? open_.num_rows()
                  : segments_.back().base_row + segments_.back().rows +
                        open_.num_rows();
  if (open_.num_rows() >= options_.segment_rows) {
    DQ_RETURN_NOT_OK(SealOpen());
    DQ_RETURN_NOT_OK(EnforceBudget());
  }
  PublishGauges();
  return Status::OK();
}

Status SegmentStore::AppendTable(Table table) {
  DQ_DCHECK(!finished_ && open_.num_rows() == 0);
  resident_bytes_ -= open_bytes_;
  open_ = std::move(table);
  open_bytes_ = open_.byte_size();
  resident_bytes_ += open_bytes_;
  num_rows_ += open_.num_rows();
  return SealOpen();
}

Status SegmentStore::Finish() {
  DQ_DCHECK(!finished_);
  finished_ = true;
  if (open_.num_rows() > 0) {
    DQ_RETURN_NOT_OK(SealOpen());
  } else {
    // Drop the empty open table's accounting (schema pool bytes).
    resident_bytes_ -= open_bytes_;
    open_bytes_ = 0;
  }
  DQ_RETURN_NOT_OK(EnforceBudget());
  PublishGauges();
  return Status::OK();
}

Status SegmentStore::SealOpen() {
  Segment seg;
  seg.base_row = segments_.empty()
                     ? 0
                     : segments_.back().base_row + segments_.back().rows;
  seg.rows = open_.num_rows();
  seg.bytes = open_bytes_;
  seg.table = std::move(open_);
  segments_.push_back(std::move(seg));
  ++stats_.segments_sealed;
  static obs::Counter* const sealed =
      obs::GetCounter("segstore.segments_sealed");
  sealed->Add(1);
  // A fresh open segment; its empty-table footprint joins the residency.
  open_ = Table(schema_);
  open_bytes_ = open_.byte_size();
  resident_bytes_ += open_bytes_;
  return Status::OK();
}

Status SegmentStore::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return Status::OK();
  // FIFO: evict the oldest unpinned resident first. Streaming consumers
  // walk segments in order, so the oldest resident is the furthest from
  // being needed again.
  for (Segment& seg : segments_) {
    if (resident_bytes_ <= options_.memory_budget_bytes) break;
    if (!seg.table.has_value() || seg.pins > 0) continue;
    DQ_RETURN_NOT_OK(SpillSegment(&seg));
  }
  return Status::OK();
}

Status SegmentStore::SpillSegment(Segment* seg) {
  if (!seg->on_disk) {
    obs::Span span("segstore.spill");
    if (options_.spill_dir.empty()) {
      return Status::InvalidArgument(
          "segment store has a memory budget but no spill_dir");
    }
    std::error_code ec;
    if (std::filesystem::create_directories(options_.spill_dir, ec)) {
      created_spill_dir_ = true;
    }
    if (ec) {
      return Status::IOError("cannot create spill dir '" +
                             options_.spill_dir + "': " + ec.message());
    }
    const size_t index = static_cast<size_t>(seg - segments_.data());
    seg->path = options_.spill_dir + "/seg-" + std::to_string(index) +
                ".dqcol";
    Status spilled = WriteDqcolFile(*seg->table, seg->path);
    if (!spilled.ok()) {
      std::filesystem::remove(seg->path, ec);
      return spilled;
    }
    seg->on_disk = true;
    ++stats_.spill_writes;
    const auto written =
        static_cast<uint64_t>(std::filesystem::file_size(seg->path));
    stats_.spill_bytes_written += written;
    static obs::Counter* const writes = obs::GetCounter("segstore.spill_writes");
    static obs::Counter* const wbytes =
        obs::GetCounter("segstore.spill_bytes_written");
    writes->Add(1);
    wbytes->Add(written);
  }
  // Immutable + on disk: dropping the resident copy loses nothing.
  seg->table.reset();
  resident_bytes_ -= seg->bytes;
  ++stats_.evictions;
  return Status::OK();
}

Status SegmentStore::LoadSegment(Segment* seg) {
  // A reload is not ingest: the codec core keeps the schema and per-cell
  // domain checks but leaves the ingest span and counters alone.
  obs::Span span("segstore.reload");
  Result<Table> t = LoadDqcolFile(schema_, seg->path);
  DQ_RETURN_NOT_OK(t.status());
  if (t->num_rows() != seg->rows) {
    return Status::IOError("spill file '" + seg->path +
                           "' does not match its segment");
  }
  seg->table = std::move(*t);
  resident_bytes_ += seg->bytes;
  if (resident_bytes_ > stats_.resident_bytes_peak) {
    stats_.resident_bytes_peak = resident_bytes_;
  }
  ++stats_.spill_reads;
  const uint64_t read_bytes =
      static_cast<uint64_t>(std::filesystem::file_size(seg->path));
  stats_.spill_bytes_read += read_bytes;
  static obs::Counter* const reads = obs::GetCounter("segstore.spill_reads");
  static obs::Counter* const rbytes =
      obs::GetCounter("segstore.spill_bytes_read");
  reads->Add(1);
  rbytes->Add(read_bytes);
  return Status::OK();
}

Result<const Table*> SegmentStore::Pin(size_t i) {
  DQ_DCHECK(finished_ && i < segments_.size());
  Segment& seg = segments_[i];
  if (!seg.table.has_value()) {
    DQ_RETURN_NOT_OK(LoadSegment(&seg));
    PublishGauges();
  }
  ++seg.pins;
  return &*seg.table;
}

Status SegmentStore::Unpin(size_t i) {
  DQ_DCHECK(i < segments_.size());
  Segment& seg = segments_[i];
  DQ_DCHECK(seg.pins > 0);
  --seg.pins;
  DQ_RETURN_NOT_OK(EnforceBudget());
  PublishGauges();
  return Status::OK();
}

void SegmentStore::PublishGauges() {
  if (resident_bytes_ > stats_.resident_bytes_peak) {
    stats_.resident_bytes_peak = resident_bytes_;
  }
  static obs::Gauge* const resident =
      obs::GetGauge("segstore.resident_bytes");
  static obs::Gauge* const peak =
      obs::GetGauge("segstore.resident_bytes_peak");
  static obs::Gauge* const budget =
      obs::GetGauge("segstore.memory_budget_bytes");
  resident->Set(static_cast<double>(resident_bytes_));
  peak->Set(static_cast<double>(stats_.resident_bytes_peak));
  budget->Set(static_cast<double>(options_.memory_budget_bytes));
}

}  // namespace dq
