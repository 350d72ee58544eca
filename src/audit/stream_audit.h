// Out-of-core audit: memory-budgeted streaming variant of the classic
// ingest -> Induce -> Audit pipeline.
//
// The classic path holds the whole table in RAM. The streaming path bounds
// both the input and the scoring side:
//
//   1. Ingest streams the CSV once through a CsvChunkSink that feeds a
//      SegmentStore (segments spill to disk past --memory-budget) and a
//      ReservoirSampler (a uniform sample_rows-row sample of the stream).
//   2. Structure induction trains on the sample table, so the
//      EncodedDataset is bounded by the sample size, not the input.
//   3. Deviation detection walks the segments in order — Pin, Audit,
//      offset rows by the segment's base row, Unpin — keeping only each
//      segment's suspicious list, then merges the lists into the global
//      ranking with one stable sort by error confidence.
//
// Determinism: the sample depends only on (seed, record sequence); segment
// boundaries depend only on the record sequence; the merged ranking equals
// the ranking Auditor::Audit would produce over the whole table with the
// same model. Hence the report is bitwise identical for every memory
// budget, and — when sample_rows >= total rows, where the sample IS the
// table in original order — identical to the classic in-memory path too.

#ifndef DQ_AUDIT_STREAM_AUDIT_H_
#define DQ_AUDIT_STREAM_AUDIT_H_

#include <string>
#include <vector>

#include "audit/auditor.h"
#include "mining/sample.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/segment_store.h"

namespace dq {

struct StreamAuditOptions {
  /// Reservoir capacity for the induction sample. When this reaches the
  /// input size the sample is the full table and the streaming audit
  /// reproduces the classic path exactly.
  size_t sample_rows = 200000;

  /// Seed of the reservoir's RNG (fixed default: rerunning the same file
  /// with the same options gives the same report).
  uint64_t sample_seed = 2003;

  /// Segment sizing, memory budget and spill directory.
  SegmentStoreOptions store;

  /// CSV dialect, error policy and decode threads for the single pass.
  CsvOptions csv;

  /// On-disk format of the input file (CSV text or dqcol columnar). The
  /// dqcol path feeds the same chunk sink, so the audit output is byte
  /// identical for a faithfully converted file.
  IngestFormat format = IngestFormat::kCsv;

  AuditorConfig auditor;
};

/// \brief Everything a streaming audit run produces. Unlike AuditReport
/// there is no per-record flag bit — only the ranked suspicious list, so
/// the result's footprint scales with the number of flagged records.
struct StreamAuditResult {
  AuditModel model;
  IngestReport ingest;
  size_t total_rows = 0;    ///< rows audited (kept by ingest)
  size_t sampled_rows = 0;  ///< rows the model was trained on
  /// Globally ranked suspicions (error confidence descending, row
  /// ascending on ties); Suspicion::row is the global row index.
  std::vector<Suspicion> suspicious;
  SegmentStore::Stats store_stats;
};

/// \brief Runs the full streaming audit over a CSV or dqcol file
/// (options.format). Deviation detection is segment-parallel when
/// options.auditor.num_threads allows: segments are pinned in a bounded
/// window and audited concurrently, one auditor thread per segment, then
/// merged serially in segment order — so the ranking stays bitwise
/// identical for every thread count. Each segment's audit time is one
/// observation of the `stream.segment_audit_ms` histogram.
Result<StreamAuditResult> RunStreamingAudit(const Schema& schema,
                                            const std::string& input_path,
                                            const StreamAuditOptions& options);

/// \brief The report writer: the ranked suspicions as CSV with columns
/// rank,row,error_confidence,attribute,observed,suggestion,support, built
/// in one buffer and written at once (WriteAuditReportCsv wraps it). Fails
/// with InvalidArgument, writing nothing, when a suspicion names an
/// attribute `schema` lacks.
Status WriteStreamAuditReportCsv(const std::vector<Suspicion>& suspicious,
                                 const Schema& schema, std::ostream* out);

Status WriteStreamAuditReportCsvFile(const std::vector<Suspicion>& suspicious,
                                     const Schema& schema,
                                     const std::string& path);

}  // namespace dq

#endif  // DQ_AUDIT_STREAM_AUDIT_H_
