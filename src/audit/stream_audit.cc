#include "audit/stream_audit.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "table/csv.h"
#include "table/ingest_backend.h"

namespace dq {

namespace {

/// Single-pass ingest fan-out: every kept record lands in the segment
/// store (columnar, spillable) and is offered to the reservoir (row form,
/// bounded). Records are offered in global order — OnChunk is called
/// serially by the CSV driver — which is what keeps the sample
/// chunking-invariant.
class StreamingIngestSink : public CsvChunkSink {
 public:
  StreamingIngestSink(SegmentStore* store, ReservoirSampler* sampler)
      : store_(store), sampler_(sampler) {}

  Status OnChunk(const TableChunk& chunk,
                 const std::vector<uint8_t>& keep) override {
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      if (keep[i] == 0) continue;
      sampler_->Offer(chunk.MaterializeRow(i));
    }
    return store_->Append(chunk, &keep);
  }

 private:
  SegmentStore* store_;
  ReservoirSampler* sampler_;
};

}  // namespace

Result<StreamAuditResult> RunStreamingAudit(
    const Schema& schema, const std::string& input_path,
    const StreamAuditOptions& options) {
  if (options.sample_rows == 0) {
    return Status::InvalidArgument("sample_rows must be positive");
  }
  StreamAuditResult result;
  SegmentStore store(schema, options.store);
  ReservoirSampler sampler(options.sample_rows, options.sample_seed);
  StreamingIngestSink sink(&store, &sampler);
  DQ_RETURN_NOT_OK(ReadTableFileChunks(options.format, schema, input_path,
                                       options.csv, &sink, &result.ingest));
  DQ_RETURN_NOT_OK(store.Finish());
  result.total_rows = store.num_rows();

  const Table sample = sampler.BuildSampleTable(schema);
  result.sampled_rows = sample.num_rows();

  const Auditor auditor(options.auditor);
  DQ_ASSIGN_OR_RETURN(result.model, auditor.Induce(sample));

  // Deviation detection per segment. Records are scored independently of
  // one another (Def. 7/8 look only at the model), so segment-local audits
  // see the same confidences the whole-table audit would. Only each
  // segment's suspicious list survives — the per-record score vectors die
  // with the segment, so audit memory is bounded by the pin window plus
  // the flagged rows.
  //
  // Segments are checked in parallel across a bounded pin window of
  // `threads` segments: each window is pinned serially (the store is not
  // thread-safe), audited concurrently with one auditor thread per
  // segment into pre-assigned report slots, then merged and unpinned
  // serially in segment order. Per-segment reports are thread-count
  // invariant and the merge order is fixed, so the ranking is bitwise
  // identical for every thread count — parallelism changes only who
  // computes each slot.
  const int threads = ResolveThreadCount(options.auditor.num_threads);
  const auto window =
      std::max<size_t>(1, static_cast<size_t>(threads));
  AuditorConfig segment_config = options.auditor;
  segment_config.num_threads = 1;  // parallelism is across segments
  const Auditor segment_auditor(segment_config);
  std::optional<ThreadPool> pool;
  if (window > 1 && store.num_segments() > 1) pool.emplace(threads);

  std::vector<const Table*> pinned(window);
  std::vector<Result<AuditReport>> reports;
  for (size_t s0 = 0; s0 < store.num_segments(); s0 += window) {
    const size_t count = std::min(window, store.num_segments() - s0);
    for (size_t i = 0; i < count; ++i) {
      DQ_ASSIGN_OR_RETURN(pinned[i], store.Pin(s0 + i));
    }
    reports.assign(count, Status::Internal("segment audit did not run"));
    auto audit_one = [&](size_t i) {
      reports[i] = segment_auditor.Audit(result.model, *pinned[i]);
    };
    RunBatch(pool.has_value() ? &*pool : nullptr, count, audit_one);
    for (size_t i = 0; i < count; ++i) {
      if (!reports[i].ok()) return reports[i].status();
      AuditReport& report = *reports[i];
      const size_t base = store.segment_base_row(s0 + i);
      result.suspicious.reserve(result.suspicious.size() +
                                report.suspicious.size());
      for (Suspicion& suspicion : report.suspicious) {
        suspicion.row += base;  // segment-local -> global row index
        result.suspicious.push_back(std::move(suspicion));
      }
      DQ_RETURN_NOT_OK(store.Unpin(s0 + i));
    }
  }

  // Merge: each per-segment list is already stable-ranked (confidence
  // descending, row ascending on ties), and the lists were concatenated in
  // base-row order, so ties across segments sit in global row order too.
  // One stable sort by confidence alone therefore reproduces exactly the
  // ranking Auditor::Audit emits for the whole table.
  std::stable_sort(result.suspicious.begin(), result.suspicious.end(),
                   [](const Suspicion& a, const Suspicion& b) {
                     return a.error_confidence > b.error_confidence;
                   });

  result.store_stats = store.stats();
  return result;
}

Status WriteStreamAuditReportCsv(const std::vector<Suspicion>& suspicious,
                                 const Schema& schema, std::ostream* out) {
  *out << "rank,row,error_confidence,attribute,observed,suggestion,support\n";
  size_t rank = 1;
  for (const Suspicion& s : suspicious) {
    if (s.attr < 0 || static_cast<size_t>(s.attr) >= schema.num_attributes()) {
      return Status::InvalidArgument("report does not match the schema");
    }
    *out << rank++ << ',' << s.row << ','
         << FormatDouble(s.error_confidence, 6) << ','
         << CsvQuote(schema.attribute(static_cast<size_t>(s.attr)).name, ',')
         << ',' << CsvQuote(schema.ValueToString(s.attr, s.observed), ',')
         << ',' << CsvQuote(schema.ValueToString(s.attr, s.suggestion), ',')
         << ',' << FormatDouble(s.support, 1) << '\n';
  }
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteStreamAuditReportCsvFile(const std::vector<Suspicion>& suspicious,
                                     const Schema& schema,
                                     const std::string& path) {
  return WriteFileAtomically(path, [&](std::ostream* out) {
    return WriteStreamAuditReportCsv(suspicious, schema, out);
  });
}

}  // namespace dq
