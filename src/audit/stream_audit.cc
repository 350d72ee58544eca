#include "audit/stream_audit.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <ostream>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/ingest_backend.h"

namespace dq {

namespace {

/// Single-pass ingest fan-out: every kept record lands in the segment
/// store (columnar, spillable) and is offered to the reservoir, if any,
/// which copies (column to column, bounded) only the records it admits.
/// Records are offered in global order — OnChunk is called serially by
/// the reader — which is what keeps the sample chunking-invariant.
class StreamingIngestSink : public CsvChunkSink {
 public:
  StreamingIngestSink(SegmentStore* store, ReservoirSampler* sampler)
      : store_(store), sampler_(sampler) {}

  Status OnChunk(const Table& chunk,
                 const std::vector<uint8_t>& keep) override {
    if (sampler_ != nullptr) sampler_->OfferChunk(chunk, keep);
    return store_->Append(chunk, &keep);
  }

 private:
  SegmentStore* store_;
  ReservoirSampler* sampler_;
};

}  // namespace

Status IngestSegments(IngestFormat format, const Schema& schema,
                      const std::string& path, const CsvOptions& csv,
                      SegmentStore* store, ReservoirSampler* sampler,
                      IngestReport* report) {
  StreamingIngestSink sink(store, sampler);
  DQ_RETURN_NOT_OK(
      ReadTableFileChunks(format, schema, path, csv, &sink, report));
  return store->Finish();
}

Result<std::vector<Suspicion>> AuditSegments(const Scorer& scorer,
                                             SegmentStore* store) {
  // Records are scored independently of one another (Def. 7/8 look only
  // at the model), so segment-local scores are the whole-table ones. One
  // segment is pinned at a time, so audit memory is that segment plus the
  // flagged rows, and the spill traffic is the same at every thread count.
  static obs::Histogram* const segment_ms = obs::GetHistogram(
      "stream.segment_audit_ms",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  std::vector<Suspicion> suspicious;
  for (size_t s = 0; s < store->num_segments(); ++s) {
    DQ_ASSIGN_OR_RETURN(const Table* segment, store->Pin(s));
    const auto start = std::chrono::steady_clock::now();
    DQ_ASSIGN_OR_RETURN(AuditReport report, scorer.Score(*segment));
    segment_ms->Observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    const size_t base = store->segment_base_row(s);
    suspicious.reserve(suspicious.size() + report.suspicious.size());
    for (Suspicion& suspicion : report.suspicious) {
      suspicion.row += base;  // segment-local -> global row index
      suspicious.push_back(std::move(suspicion));
    }
    DQ_RETURN_NOT_OK(store->Unpin(s));
  }

  // Merge: each per-segment list is already stable-ranked (confidence
  // descending, row ascending on ties), and the lists were concatenated in
  // base-row order, so ties across segments sit in global row order too.
  // One stable sort by confidence alone therefore reproduces exactly the
  // ranking Auditor::Audit emits for the whole table.
  obs::Span span("stream.merge");
  std::stable_sort(suspicious.begin(), suspicious.end(),
                   [](const Suspicion& a, const Suspicion& b) {
                     return a.error_confidence > b.error_confidence;
                   });
  return suspicious;
}

Result<StreamAuditResult> RunStreamingAudit(
    const Schema& schema, const std::string& input_path,
    const StreamAuditOptions& options) {
  if (options.sample_rows == 0) {
    return Status::InvalidArgument("sample_rows must be positive");
  }
  StreamAuditResult result;
  SegmentStore store(schema, options.store);
  ReservoirSampler sampler(schema, options.sample_rows, options.sample_seed);
  DQ_RETURN_NOT_OK(IngestSegments(options.format, schema, input_path,
                                  options.csv, &store, &sampler,
                                  &result.ingest));
  result.total_rows = store.num_rows();
  const Table sample = sampler.BuildSampleTable();
  result.sampled_rows = sample.num_rows();
  DQ_ASSIGN_OR_RETURN(result.model, Auditor(options.auditor).Induce(sample));
  DQ_ASSIGN_OR_RETURN(const Scorer scorer,
                      Scorer::Make(result.model, schema, options.auditor));
  DQ_ASSIGN_OR_RETURN(result.suspicious, AuditSegments(scorer, &store));
  result.store_stats = store.stats();
  return result;
}

Status WriteStreamAuditReportCsv(const std::vector<Suspicion>& suspicious,
                                 const Schema& schema, std::ostream* out) {
  // Every row is appended to one buffer, written once; a report that does
  // not match the schema writes nothing.
  std::vector<std::string> names(schema.num_attributes());
  for (size_t a = 0; a < names.size(); ++a) {
    names[a] = CsvQuote(schema.attribute(a).name, ',');
  }
  std::string text =
      "rank,row,error_confidence,attribute,observed,suggestion,support\n";
  text.reserve(text.size() + 64 * suspicious.size());
  const auto append_count = [&text](size_t v) {
    char digits[24];
    text.append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
  };
  size_t rank = 1;
  for (const Suspicion& s : suspicious) {
    if (s.attr < 0 || static_cast<size_t>(s.attr) >= schema.num_attributes()) {
      return Status::InvalidArgument("report does not match the schema");
    }
    append_count(rank++);
    text += ',';
    append_count(s.row);
    text += ',';
    AppendFormattedDouble(&text, s.error_confidence, 6);
    text += ',';
    text += names[static_cast<size_t>(s.attr)];
    text += ',';
    text += CsvQuote(schema.ValueToString(s.attr, s.observed), ',');
    text += ',';
    text += CsvQuote(schema.ValueToString(s.attr, s.suggestion), ',');
    text += ',';
    AppendFormattedDouble(&text, s.support, 1);
    text += '\n';
  }
  out->write(text.data(), static_cast<std::streamsize>(text.size()));
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
