// Segmented audit, the one audit pipeline of dqaudit:
//
//   1. IngestSegments streams the input once into a SegmentStore (segments
//      spill to disk past its memory budget) and, when given one, a
//      ReservoirSampler (a uniform sample of the stream to induce on).
//   2. AuditSegments walks the segments in order — Pin, score with the
//      run's one Scorer across all its workers, offset rows by the
//      segment's base row, Unpin — keeping only each segment's suspicious
//      list, then merges the lists into the global ranking with one stable
//      sort by error confidence.
//
// Determinism: the sample depends only on (seed, record sequence); segment
// boundaries depend only on the record sequence; the merged ranking equals
// the ranking Auditor::Audit would produce over the whole table with the
// same model. Hence the report is bitwise identical for every memory
// budget and thread count, and — when sample_rows >= total rows, where the
// sample IS the table in original order — identical to an audit of the
// table read whole.

#ifndef DQ_AUDIT_STREAM_AUDIT_H_
#define DQ_AUDIT_STREAM_AUDIT_H_

#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/scorer.h"
#include "mining/sample.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/segment_store.h"

namespace dq {

struct StreamAuditOptions {
  /// Reservoir capacity for the induction sample. When this reaches the
  /// input size the sample is the full table and the streaming audit
  /// reproduces the audit of the table read whole exactly.
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

/// \brief The ingest step: reads `path` once, chunk by chunk, into `store`
/// and Finish()es it, offering every kept record to `sampler` unless it is
/// null. `report` is filled also when the read fails.
Status IngestSegments(IngestFormat format, const Schema& schema,
                      const std::string& path, const CsvOptions& csv,
                      SegmentStore* store, ReservoirSampler* sampler,
                      IngestReport* report);

/// \brief The segment-audit step: scores the segments of a finished
/// `store` in order, one pinned at a time, and returns the ranking
/// scorer.Score would give the whole table, with global rows. Records one
/// `stream.segment_audit_ms` observation per segment and `stream.merge`.
Result<std::vector<Suspicion>> AuditSegments(const Scorer& scorer,
                                             SegmentStore* store);

/// \brief Runs the full streaming audit over a CSV or dqcol file
/// (options.format): IngestSegments with a reservoir, induction on the
/// sample, and AuditSegments. The ranking, the store's spill traffic and
/// the span tree are the same for every thread count.
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
