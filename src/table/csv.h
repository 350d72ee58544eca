// CSV import/export for Tables.
//
// The dialect is an RFC-4180 subset (separator-delimited, double-quote
// quoting with "" escapes, "?" for nulls, header row with attribute names;
// see docs/FORMATS.md). The reader is a buffered streaming parser: quoted
// fields may span newlines, CRLF/CR/LF all terminate records, a UTF-8 BOM
// is skipped, and input is consumed one batch of records at a time, so
// parsing memory is bounded by a few batches (one per thread), independent
// of file size. Each batch is decoded column by column straight into the
// typed columns of a batch Table. Malformed records either fail the read
// (CsvErrorPolicy::kFail) or are quarantined into an IngestReport while
// the read continues (kSkipAndReport) — the recovery mode that lets the
// auditor ingest real, dirty operational extracts. With more than one
// thread the read is a pipeline: helpers tokenize and decode whole batches
// ahead while the calling thread delivers them in record order, so the
// result is bitwise-identical for every thread count.

#ifndef DQ_TABLE_CSV_H_
#define DQ_TABLE_CSV_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "table/ingest_report.h"
#include "table/table.h"

namespace dq {

/// \brief What ReadCsv does with a malformed record.
enum class CsvErrorPolicy {
  kFail,           ///< abort the read with the first error (strict)
  kSkipAndReport,  ///< quarantine the record into the IngestReport, go on
};

struct CsvOptions {
  char separator = ',';
  std::string null_token = "?";

  /// Write side: emit a header row of attribute names.
  bool write_header = true;

  /// Read side: expect (and verify) a header row. Distinct from
  /// write_header so a reader's expectation is never silently driven by a
  /// writer setting.
  bool expect_header = true;

  CsvErrorPolicy on_error = CsvErrorPolicy::kFail;

  /// Threads of the read (0 = hardware concurrency, 1 = serial): the
  /// calling thread, which delivers, plus num_threads - 1 helpers that
  /// tokenize and decode batches ahead of it, with one batch in flight per
  /// thread. The resulting table and report are identical for every
  /// thread count.
  int num_threads = 1;

  /// Tokenizer read granularity: bytes read from the stream at a time
  /// (16 B to 1 GiB). A batch's byte storage holds its records plus at
  /// most one chunk read ahead, so parsing memory is about num_threads
  /// times (batch_records times the record length plus chunk_bytes).
  size_t chunk_bytes = 1 << 16;

  /// Records per batch: the unit that is tokenized, decoded (whole, by one
  /// thread) and delivered to the table or sink. Blank lines held back
  /// ahead of a record count toward its batch. A batch's bytes may not
  /// exceed 4 GiB: the read fails with an IOError at one that would.
  size_t batch_records = 4096;
};

/// \brief Writes `table` to a stream. Fails with InvalidArgument, naming
/// the attribute and row, when a non-null cell renders to
/// options.null_token: it would read back as null.
Status WriteCsv(const Table& table, std::ostream* out,
                const CsvOptions& options = {});

/// \brief Writes `table` to a file path (binary mode, '\n' terminators).
/// On failure no file is left behind.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// \brief Receives decoded record batches from the streaming CSV and
/// dqcol readers.
///
/// The sink is called in record order with each decoded batch, a Table
/// of the read's schema; rows with keep[i] == 0 are quarantined records
/// the sink must drop (pass the mask through to Table::Append). The batch
/// table is reused across calls — consume it before returning. This is
/// the seam that lets ingestion feed either an in-memory Table (ReadCsv)
/// or an out-of-core segment store without re-reading the file.
class CsvChunkSink {
 public:
  virtual ~CsvChunkSink() = default;
  virtual Status OnChunk(const Table& chunk,
                         const std::vector<uint8_t>& keep) = 0;
};

/// \brief Reads rows from a stream into a table with the given schema.
///
/// With options.expect_header the first record must match the schema's
/// attribute names (header problems are fatal under both error policies).
/// Under kSkipAndReport, malformed data records are quarantined into
/// `report` (optional) and the surviving rows are returned; under kFail the
/// first malformed record aborts with a position-annotated error. A stream
/// that fails (its read sets badbit, or its streambuf throws) fails the
/// read with an IOError, under both policies. `report`, when given, always
/// receives the ingest counters and timings.
Result<Table> ReadCsv(const Schema& schema, std::istream* in,
                      const CsvOptions& options = {},
                      IngestReport* report = nullptr);

/// \brief Streaming variant of ReadCsv: decoded batches flow to `sink`
/// instead of accumulating in a Table, so ingest memory stays bounded by
/// num_threads batches regardless of file size. The sink is called on the
/// calling thread only, in record order, whatever num_threads is; the
/// quarantine behavior and the record sequence are identical to ReadCsv.
/// The read stops at the first of, in record order: a header error, a
/// kFail record (its batch is delivered truncated to the records before
/// it, matching ReadCsv's partial table), a status the sink returns, and a
/// stream failure (after the complete records before it are delivered).
/// It returns that status, and the helper threads are stopped and joined
/// before it returns.
Status ReadCsvChunks(const Schema& schema, std::istream* in,
                     const CsvOptions& options, CsvChunkSink* sink,
                     IngestReport* report = nullptr);

/// \brief Reads a CSV file (binary mode) through a chunk sink.
Status ReadCsvFileChunks(const Schema& schema, const std::string& path,
                         const CsvOptions& options, CsvChunkSink* sink,
                         IngestReport* report = nullptr);

/// \brief Reads a CSV file (binary mode) into a table with the schema.
Result<Table> ReadCsvFile(const Schema& schema, const std::string& path,
                          const CsvOptions& options = {},
                          IngestReport* report = nullptr);

/// \brief Double-quote-escapes a field when it contains the separator, a
/// quote or a newline (shared by every CSV producer in the library).
std::string CsvQuote(const std::string& field, char separator);

}  // namespace dq

#endif  // DQ_TABLE_CSV_H_
