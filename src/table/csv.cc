#include "table/csv.h"

#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <utility>

#include "common/atomic_file.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv_parser.h"
#include "table/date.h"

namespace dq {

namespace {

bool NeedsQuoting(const std::string& field, char sep) {
  return field.find(sep) != std::string::npos ||
         field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos ||
         field.find('\r') != std::string::npos;
}

}  // namespace

std::string CsvQuote(const std::string& field, char sep) {
  if (!NeedsQuoting(field, sep)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Status WriteCsv(const Table& table, std::ostream* out,
                const CsvOptions& options) {
  const Schema& schema = table.schema();
  if (options.write_header) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) *out << options.separator;
      *out << CsvQuote(schema.attribute(a).name, options.separator);
    }
    *out << '\n';
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) *out << options.separator;
      const Value& cell = table.cell(r, a);
      // Numeric cells use the shortest exact form, not the display
      // rendering: ValueToString rounds to 6 decimals, which would break
      // the bitwise write/read round trip.
      *out << CsvQuote(
          cell.is_numeric()
              ? FormatDoubleRoundTrip(cell.numeric())
              : schema.ValueToString(static_cast<int>(a), cell,
                                     options.null_token),
          options.separator);
    }
    *out << '\n';
  }
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  // Binary mode (WriteFileAtomically's stream): text mode would rewrite
  // '\n' inside quoted fields on CRLF platforms and corrupt the round trip.
  return WriteFileAtomically(path, [&](std::ostream* out) {
    return WriteCsv(table, out, options);
  });
}

namespace {

std::string TruncatedRaw(const std::string& text) {
  if (text.size() <= IngestReport::kMaxRawBytes) return text;
  return text.substr(0, IngestReport::kMaxRawBytes) + "...";
}

/// Outcome of decoding one raw record: kept, or a quarantine entry.
struct DecodedRecord {
  bool ok = false;
  IngestError error;
};

/// Per-slot decode scratch: field views (into the record text for
/// quote-free records, into `storage` otherwise) plus the unescape
/// storage. Reused across batches so the buffers keep their capacity.
struct FieldScratch {
  std::vector<std::string_view> views;
  std::vector<std::string> storage;
};

/// Fast per-cell decode straight from the field view into the chunk
/// column. Returns false on ANY failure without touching the cell; the
/// caller then re-runs the field through Schema::ParseValue, whose
/// diagnosis (and error message) is authoritative. A true return stores
/// exactly the value the ParseValue + InDomain path would have stored.
bool FastDecodeCell(const AttributeDef& def, std::string_view field,
                    TableChunk* chunk, size_t slot, size_t attr) {
  switch (def.type) {
    case DataType::kNumeric: {
      double d = 0;
      if (!ParseDouble(field, &d)) return false;
      if (!(d >= def.numeric_min && d <= def.numeric_max)) return false;
      chunk->Set(slot, attr, Value::Numeric(d));
      return true;
    }
    case DataType::kNominal: {
      const auto it = def.category_index.find(field);
      if (it == def.category_index.end()) return false;
      chunk->Set(slot, attr, Value::Nominal(it->second));
      return true;
    }
    case DataType::kDate: {
      auto days = ParseDate(field);
      if (!days.ok()) return false;
      if (!(*days >= def.date_min && *days <= def.date_max)) return false;
      chunk->Set(slot, attr, Value::Date(*days));
      return true;
    }
  }
  return false;
}

/// Raw record -> typed cells of chunk slot `slot`, fully validated against
/// the schema (so assembly can bulk-append unchecked). Runs on worker
/// threads: touches only its own chunk slot / output slot and const state.
/// A slot whose record fails decoding may hold a partial prefix of cells;
/// the keep mask drops it at AppendChunk time.
void DecodeRecord(const Schema& schema, const CsvOptions& options,
                  const RawCsvRecord& rec, FieldScratch* fields,
                  TableChunk* chunk, size_t slot, DecodedRecord* out) {
  out->ok = false;  // slots are reused across batches without re-init
  out->error.line = rec.line;
  CsvFieldError ferr;
  if (!SplitCsvRecordViews(rec.text, options.separator, &fields->views,
                           &fields->storage, &ferr)) {
    out->error.kind = ferr.kind;
    out->error.column = ferr.column;
    out->error.message = ferr.kind == CsvErrorKind::kUnterminatedQuote
                             ? "quoted field never closed"
                             : "quote inside an unquoted field or after a "
                               "closing quote";
    out->error.raw = TruncatedRaw(rec.text);
    return;
  }
  if (fields->views.size() != schema.num_attributes()) {
    out->error.kind = CsvErrorKind::kArityMismatch;
    out->error.message = "expected " +
                         std::to_string(schema.num_attributes()) +
                         " fields, got " +
                         std::to_string(fields->views.size());
    out->error.raw = TruncatedRaw(rec.text);
    return;
  }
  for (size_t a = 0; a < fields->views.size(); ++a) {
    const std::string_view field = fields->views[a];
    const AttributeDef& def = schema.attribute(a);
    if (field == options.null_token) {
      chunk->Set(slot, a, Value::Null());
      continue;
    }
    if (FastDecodeCell(def, field, chunk, slot, a)) continue;
    // Slow path: the cell is malformed or out of domain. Re-diagnose with
    // the schema's parser so the quarantine entry carries the exact same
    // message the ParseValue-based decoder produced.
    const std::string field_str(field);
    auto value = schema.ParseValue(static_cast<int>(a), field_str,
                                   options.null_token);
    if (value.ok() && !def.InDomain(*value)) {
      value = Status::InvalidArgument("value '" + field_str +
                                      "' outside the attribute's domain");
    }
    if (!value.ok()) {
      out->error.kind = CsvErrorKind::kBadValue;
      out->error.message =
          "attribute '" + def.name + "': " + value.status().message();
      out->error.raw = TruncatedRaw(rec.text);
      return;
    }
    chunk->Set(slot, a, *value);  // fast path was conservative; keep going
  }
  out->ok = true;
}

Status CheckHeader(const Schema& schema, const CsvOptions& options,
                   const RawCsvRecord& rec, IngestReport* report) {
  auto fail = [&](size_t column, std::string message) {
    IngestError err;
    err.line = rec.line;
    err.column = column;
    err.kind = CsvErrorKind::kBadHeader;
    err.message = std::move(message);
    err.raw = TruncatedRaw(rec.text);
    Status status = Status::IOError(FormatIngestError(err));
    report->errors.push_back(std::move(err));
    return status;
  };
  std::vector<std::string> fields;
  CsvFieldError ferr;
  if (!SplitCsvRecord(rec.text, options.separator, &fields, &ferr)) {
    return fail(ferr.column, std::string("malformed header (") +
                                 CsvErrorKindToString(ferr.kind) + ")");
  }
  if (fields.size() != schema.num_attributes()) {
    return fail(0, "header arity mismatch at line " +
                       std::to_string(rec.line));
  }
  for (size_t a = 0; a < fields.size(); ++a) {
    if (fields[a] != schema.attribute(a).name) {
      return fail(0, "header field '" + fields[a] +
                         "' does not match schema attribute '" +
                         schema.attribute(a).name + "'");
    }
  }
  return Status::OK();
}

/// Shared streaming driver behind ReadCsv and ReadCsvChunks: tokenize,
/// batch-parallel decode, serial quarantine bookkeeping in record order,
/// then hand each batch (chunk + keep mask) to `deliver`. The delivered
/// sequence is identical whichever consumer sits on the other end.
Status ReadCsvDriver(const Schema& schema, std::istream* in,
                     const CsvOptions& options, IngestReport* rep,
                     const std::function<Status(const TableChunk&,
                                                const std::vector<uint8_t>&)>&
                         deliver) {
  obs::Span span("ingest");
  *rep = IngestReport();

  const int threads = ResolveThreadCount(options.num_threads);
  rep->threads_used = threads;
  // One pool for the whole read (a pool per batch would respawn workers).
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  CsvRecordReader reader(in, options.separator, options.chunk_bytes);
  // `batch` slots are reused across flushes (records land in them straight
  // from the reader, and flushing resets the count, not the vector), so a
  // record's text buffer keeps its capacity from one batch to the next.
  std::vector<RawCsvRecord> batch;
  size_t batch_n = 0;
  auto slot = [&]() -> RawCsvRecord& {
    if (batch_n == batch.size()) batch.emplace_back();
    return batch[batch_n];
  };
  std::vector<DecodedRecord> decoded;
  std::vector<FieldScratch> scratch;  // per-slot field buffers
  TableChunk chunk(schema);  // columnar batch staging, reused across flushes
  std::vector<uint8_t> keep;

  auto finish = [&](Status status) {
    rep->bytes_read = reader.bytes_read();
    // parse_ms is a view of the "ingest" span measurement; the span itself
    // closes (and records) when the driver returns.
    rep->parse_ms = span.ElapsedMs();
    static obs::Counter* const total = obs::GetCounter("ingest.records_total");
    static obs::Counter* const kept = obs::GetCounter("ingest.records_kept");
    static obs::Counter* const quarantined =
        obs::GetCounter("ingest.records_quarantined");
    static obs::Counter* const bytes = obs::GetCounter("ingest.bytes_read");
    total->Add(rep->records_total);
    kept->Add(rep->records_kept);
    quarantined->Add(rep->records_quarantined);
    bytes->Add(rep->bytes_read);
    return status;
  };

  auto flush_batch = [&]() -> Status {
    if (batch_n == 0) return Status::OK();
    // Slot buffers (decode outcomes, per-slot field vectors) are only ever
    // grown: DecodeRecord fully re-initializes the slots it touches, and
    // keeping the old objects preserves their string capacity.
    if (decoded.size() < batch_n) decoded.resize(batch_n);
    if (scratch.size() < batch_n) {
      scratch.resize(batch_n);
      for (auto& fields : scratch) {
        fields.views.reserve(schema.num_attributes());
      }
    }
    chunk.Reset(batch_n);
    // Workers decode straight into disjoint chunk slots — no Row
    // materialization between the parser and the consumer's columns.
    auto decode_one = [&](size_t i) {
      DecodeRecord(schema, options, batch[i], &scratch[i], &chunk, i,
                   &decoded[i]);
    };
    if (pool.has_value()) {
      pool->ParallelFor(batch_n, decode_one);
    } else {
      for (size_t i = 0; i < batch_n; ++i) decode_one(i);
    }
    // Serial bookkeeping in record order (quarantine entries land in the
    // same sequence for every thread count), then one bulk delivery of the
    // kept slots. Under kFail, slots after the failing record stay unkept —
    // the consumer holds exactly the records before the error.
    keep.assign(batch_n, 0);
    Status failed = Status::OK();
    for (size_t i = 0; i < batch_n; ++i) {
      ++rep->records_total;
      if (decoded[i].ok) {
        ++rep->records_kept;
        keep[i] = 1;
        continue;
      }
      ++rep->records_quarantined;
      rep->errors.push_back(std::move(decoded[i].error));
      if (options.on_error == CsvErrorPolicy::kFail) {
        failed = Status::IOError(FormatIngestError(rep->errors.back()));
        break;
      }
    }
    Status delivered = deliver(chunk, keep);
    if (!delivered.ok()) return delivered;  // sink failure aborts the read
    batch_n = 0;
    return failed;
  };

  bool saw_header = !options.expect_header;
  // Blank records of a multi-attribute table are held back: trailing blank
  // lines are silently dropped at end of input, while interior blank lines
  // are real (arity-violating) records. For a single-attribute schema a
  // blank line IS a legitimate record (the empty string / an empty null
  // token), so it is never held back. Only the line numbers are held (the
  // text is empty by definition).
  std::vector<size_t> pending_blank_lines;
  for (;;) {
    if (!reader.Next(&slot())) break;
    if (!saw_header) {
      saw_header = true;
      Status header = CheckHeader(schema, options, batch[batch_n], rep);
      if (!header.ok()) return finish(std::move(header));
      continue;  // slot not consumed; the next record overwrites it
    }
    if (batch[batch_n].text.empty() && schema.num_attributes() > 1) {
      pending_blank_lines.push_back(batch[batch_n].line);
      continue;
    }
    if (!pending_blank_lines.empty()) {
      // The held-back blanks precede the current record: shift it past them.
      RawCsvRecord held = std::move(batch[batch_n]);
      for (size_t blank_line : pending_blank_lines) {
        RawCsvRecord& blank = slot();
        blank.text.clear();
        blank.line = blank_line;
        ++batch_n;
      }
      pending_blank_lines.clear();
      slot() = std::move(held);
    }
    ++batch_n;
    if (batch_n >= options.batch_records) {
      Status flushed = flush_batch();
      if (!flushed.ok()) return finish(std::move(flushed));
    }
  }
  Status flushed = flush_batch();
  if (!flushed.ok()) return finish(std::move(flushed));
  return finish(Status::OK());
}

}  // namespace

Result<Table> ReadCsv(const Schema& schema, std::istream* in,
                      const CsvOptions& options, IngestReport* report) {
  IngestReport local;
  IngestReport* rep = report != nullptr ? report : &local;
  Table table(schema);
  Status status = ReadCsvDriver(
      schema, in, options, rep,
      [&table](const TableChunk& chunk, const std::vector<uint8_t>& keep) {
        table.AppendChunk(chunk, &keep);
        return Status::OK();
      });
  obs::GetGauge("table.bytes")->Set(static_cast<double>(table.byte_size()));
  if (!status.ok()) return status;
  return table;
}

Status ReadCsvChunks(const Schema& schema, std::istream* in,
                     const CsvOptions& options, CsvChunkSink* sink,
                     IngestReport* report) {
  IngestReport local;
  IngestReport* rep = report != nullptr ? report : &local;
  return ReadCsvDriver(
      schema, in, options, rep,
      [sink](const TableChunk& chunk, const std::vector<uint8_t>& keep) {
        return sink->OnChunk(chunk, keep);
      });
}

Status ReadCsvFileChunks(const Schema& schema, const std::string& path,
                         const CsvOptions& options, CsvChunkSink* sink,
                         IngestReport* report) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadCsvChunks(schema, &f, options, sink, report);
}

Result<Table> ReadCsvFile(const Schema& schema, const std::string& path,
                          const CsvOptions& options, IngestReport* report) {
  // Binary mode: the parser normalizes CRLF/CR record terminators itself
  // and quoted embedded newlines must reach it unmodified.
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadCsv(schema, &f, options, report);
}

}  // namespace dq
