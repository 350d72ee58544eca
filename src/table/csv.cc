#include "table/csv.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <ostream>
#include <utility>

#include "common/atomic_file.h"
#include "common/input_file.h"
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
      const std::string text =
          cell.is_numeric() ? FormatDoubleRoundTrip(cell.numeric())
                            : schema.ValueToString(static_cast<int>(a), cell,
                                                   options.null_token);
      // Quoting cannot tell such a value from a null: the reader would
      // turn it into one.
      if (!cell.is_null() && text == options.null_token) {
        return Status::InvalidArgument(
            "attribute '" + schema.attribute(a).name + "', row " +
            std::to_string(r) + ": value '" + text +
            "' is spelled like the null token");
      }
      *out << CsvQuote(text, options.separator);
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

std::string TruncatedRaw(std::string_view text) {
  if (text.size() <= IngestReport::kMaxRawBytes) return std::string(text);
  return std::string(text.substr(0, IngestReport::kMaxRawBytes)) + "...";
}

constexpr size_t kNoSlot = ~size_t{0};

/// An exact "YYYY-MM-DD" spelling of a real calendar date; ParseDate gives
/// the same day count for it. False for any other spelling (ParseDate then
/// decides).
bool ParseIsoDate(std::string_view text, int32_t* days) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return false;
  int32_t digits[8] = {};
  static constexpr size_t kDigitAt[8] = {0, 1, 2, 3, 5, 6, 8, 9};
  for (size_t i = 0; i < 8; ++i) {
    const auto d = static_cast<unsigned>(text[kDigitAt[i]] - '0');
    if (d > 9) return false;
    digits[i] = static_cast<int32_t>(d);
  }
  const CivilDate c{
      digits[0] * 1000 + digits[1] * 100 + digits[2] * 10 + digits[3],
      digits[4] * 10 + digits[5], digits[6] * 10 + digits[7]};
  if (!IsValidCivil(c)) return false;
  *days = DaysFromCivil(c);
  return true;
}

/// What one decode range owns: its unescape scratch and the quarantine
/// entries of its failed records, keyed by chunk slot.
struct DecodePart {
  std::string scratch;
  std::vector<std::pair<size_t, IngestError>> failures;
};

/// Decodes the records of one batch column by column, straight into the
/// typed columns of the chunk slots the driver assigned them. Records are
/// fully validated against the schema (so assembly can bulk-append
/// unchecked). A slot whose record fails keeps its first failing
/// attribute's error (records are checked attribute by attribute, in
/// schema order) and may hold a partial prefix of cells; the keep mask
/// drops it at AppendChunk time. DecodeRange touches only the slots of its
/// records and its own scratch, so disjoint ranges run on pool workers.
class BatchDecoder {
 public:
  BatchDecoder(const Schema& schema, const CsvOptions& options,
               const CsvRecordBatch& records, const std::vector<size_t>& slot_of,
               TableChunk* chunk, std::vector<uint8_t>* ok)
      : schema_(schema),
        options_(options),
        records_(records),
        slot_of_(slot_of),
        chunk_(chunk),
        ok_(*ok) {}

  void DecodeRange(size_t begin, size_t end, DecodePart* part) const {
    // Blocks small enough that a block's field ends and record bytes stay
    // in L1 across its column passes.
    constexpr size_t kBlock = 256;
    for (size_t from = begin; from < end; from += kBlock) {
      DecodeBlock(from, std::min(end, from + kBlock), part);
    }
  }

 private:
  void DecodeBlock(size_t begin, size_t end, DecodePart* part) const {
    const size_t arity = schema_.num_attributes();
    for (size_t r = begin; r < end; ++r) {
      const size_t slot = slot_of_[r];
      if (slot == kNoSlot) continue;
      ok_[slot] = 1;
      if (const auto& error = records_.error[r]; error.has_value()) {
        Fail(part, r, error->kind, error->column,
             error->kind == CsvErrorKind::kUnterminatedQuote
                 ? "quoted field never closed"
                 : "quote inside an unquoted field or after a closing quote");
      } else if (records_.num_fields(r) != arity) {
        Fail(part, r, CsvErrorKind::kArityMismatch, 0,
             "expected " + std::to_string(arity) + " fields, got " +
                 std::to_string(records_.num_fields(r)));
      }
    }
    for (size_t a = 0; a < arity; ++a) {
      const AttributeDef& def = schema_.attribute(a);
      switch (def.type) {
        case DataType::kNominal: {
          // An unquoted field is a view into the reader's buffer, which
          // keeps the padding FindPadded's 8-byte load needs.
          static_assert(kCsvBufferPadding >= 8);
          const CategoryDictionary& dict = def.dictionary;
          int32_t* codes = chunk_->code_slots(a);
          DecodeColumn(a, begin, end, part, [&](std::string_view field,
                                                   bool padded, size_t slot) {
            const int32_t code =
                padded ? dict.FindPadded(field) : dict.Find(field);
            if (code < 0) return false;
            codes[slot] = code;
            return true;
          });
          break;
        }
        case DataType::kNumeric: {
          const double lo = def.numeric_min;
          const double hi = def.numeric_max;
          double* values = chunk_->numeric_slots(a);
          DecodeColumn(a, begin, end, part, [&](std::string_view field,
                                                   bool, size_t slot) {
            double d = 0;
            const char* last = field.data() + field.size();
            const auto [ptr, ec] = std::from_chars(field.data(), last, d);
            if (ec != std::errc() || ptr != last || !(d >= lo && d <= hi)) {
              return false;
            }
            values[slot] = d;
            return true;
          });
          break;
        }
        case DataType::kDate: {
          const int32_t lo = def.date_min;
          const int32_t hi = def.date_max;
          int32_t* days_out = chunk_->code_slots(a);
          DecodeColumn(a, begin, end, part, [&](std::string_view field,
                                                   bool, size_t slot) {
            int32_t days = 0;
            if (!ParseIsoDate(field, &days) || days < lo || days > hi) {
              return false;
            }
            days_out[slot] = days;
            return true;
          });
          break;
        }
      }
    }
  }

  /// Column `a` of records [begin, end) that are still good: the null
  /// token, then `fast` (which stores the cell and returns true, or
  /// refuses without storing), then the slow path.
  template <typename Fast>
  void DecodeColumn(size_t a, size_t begin, size_t end, DecodePart* part,
                    const Fast& fast) const {
    // Locals, not CsvRecordBatch::RawField: the byte stores below may
    // alias anything, which would reload every vector's data pointer per
    // cell.
    uint8_t* const nulls = chunk_->null_slots(a);
    const uint8_t* const ok = ok_.data();
    const size_t* const slot_of = slot_of_.data();
    const char* const data = records_.data;
    const size_t* const record_begin = records_.begin.data();
    const size_t* const first_end = records_.first_end.data();
    const size_t* const field_ends = records_.field_ends.data();
    const std::string_view null_token = options_.null_token;
    for (size_t r = begin; r < end; ++r) {
      const size_t slot = slot_of[r];
      if (slot == kNoSlot || ok[slot] == 0) continue;
      const size_t* ends = field_ends + first_end[r];
      const size_t from = a == 0 ? record_begin[r] : ends[a - 1] + 1;
      const std::string_view raw(data + from, ends[a] - from);
      const bool quoted = !raw.empty() && raw.front() == '"';
      const std::string_view field =
          quoted ? UnquoteCsvField(raw, &part->scratch) : raw;
      if (field == null_token) {
        chunk_->SetNull(slot, a);
        continue;
      }
      nulls[slot] = 0;
      if (!fast(field, !quoted, slot)) SlowCell(part, r, a, field, slot);
    }
  }

  /// The cell is malformed, out of domain, or spelled in a way the fast
  /// paths do not take (" 5000", "2003-6-1"): Schema::ParseValue decides,
  /// so a quarantine entry carries the exact message it gives and an
  /// accepted spelling stores the value it parses to.
  void SlowCell(DecodePart* part, size_t r, size_t a, std::string_view field,
                size_t slot) const {
    const AttributeDef& def = schema_.attribute(a);
    const std::string text(field);
    auto value = schema_.ParseValue(static_cast<int>(a), text,
                                    options_.null_token);
    if (value.ok() && !def.InDomain(*value)) {
      value = Status::InvalidArgument("value '" + text +
                                      "' outside the attribute's domain");
    }
    if (!value.ok()) {
      Fail(part, r, CsvErrorKind::kBadValue, 0,
           "attribute '" + def.name + "': " + value.status().message());
      return;
    }
    chunk_->Set(slot, a, *value);
  }

  void Fail(DecodePart* part, size_t r, CsvErrorKind kind, size_t column,
            std::string message) const {
    const size_t slot = slot_of_[r];
    ok_[slot] = 0;
    IngestError& error = part->failures.emplace_back(slot, IngestError()).second;
    error.line = records_.line[r];
    error.column = column;
    error.kind = kind;
    error.message = std::move(message);
    error.raw = TruncatedRaw(records_.text(r));
  }

  const Schema& schema_;
  const CsvOptions& options_;
  const CsvRecordBatch& records_;
  const std::vector<size_t>& slot_of_;
  TableChunk* chunk_;
  std::vector<uint8_t>& ok_;
};

Status CheckHeader(const Schema& schema, const CsvRecordBatch& records,
                   size_t r, IngestReport* report) {
  auto fail = [&](size_t column, std::string message) {
    IngestError err;
    err.line = records.line[r];
    err.column = column;
    err.kind = CsvErrorKind::kBadHeader;
    err.message = std::move(message);
    err.raw = TruncatedRaw(records.text(r));
    Status status = Status::IOError(FormatIngestError(err));
    report->errors.push_back(std::move(err));
    return status;
  };
  if (const auto& error = records.error[r]; error.has_value()) {
    return fail(error->column, std::string("malformed header (") +
                                   CsvErrorKindToString(error->kind) + ")");
  }
  if (records.num_fields(r) != schema.num_attributes()) {
    return fail(0, "header arity mismatch at line " +
                       std::to_string(records.line[r]));
  }
  std::string scratch;
  for (size_t a = 0; a < records.num_fields(r); ++a) {
    const std::string_view field =
        UnquoteCsvField(records.RawField(r, a), &scratch);
    if (field != schema.attribute(a).name) {
      return fail(0, "header field '" + std::string(field) +
                         "' does not match schema attribute '" +
                         schema.attribute(a).name + "'");
    }
  }
  return Status::OK();
}

/// Shared streaming driver behind ReadCsv and ReadCsvChunks. Each batch
/// runs three phases on the calling thread, each in its own span:
/// `ingest.read` tokenizes records into the reader's buffer and assigns
/// them chunk slots; `ingest.decode` decodes them column by column into the
/// chunk (on the pool, one contiguous record range per thread); and
/// `ingest.deliver` does the quarantine bookkeeping in record order and
/// hands the chunk plus keep mask to `deliver`. The delivered sequence is
/// identical whichever consumer sits on the other end, and for every
/// thread count.
Status ReadCsvDriver(const Schema& schema, std::istream* in,
                     const CsvOptions& options, IngestReport* rep,
                     const std::function<Status(const TableChunk&,
                                                const std::vector<uint8_t>&)>&
                         deliver) {
  obs::Span span("ingest");
  *rep = IngestReport();

  const int threads = ResolveThreadCount(options.num_threads);
  rep->threads_used = threads;
  // One pool for the whole read (a pool per batch would respawn workers),
  // started by the first decode.
  std::optional<ThreadPool> pool;

  CsvRecordReader reader(in, options.separator, options.chunk_bytes);
  const size_t batch_records = std::max<size_t>(options.batch_records, 1);
  const bool hold_blanks = schema.num_attributes() > 1;
  // Buffers reused across batches: the records (views into the reader's
  // buffer), each record's chunk slot, and each slot's outcome.
  CsvRecordBatch records;
  std::vector<size_t> slot_of;
  std::vector<size_t> pending_blanks;
  std::vector<uint8_t> ok;
  std::vector<DecodePart> parts(static_cast<size_t>(threads));
  std::vector<std::pair<size_t, IngestError>> failures;
  TableChunk chunk(schema);
  std::vector<uint8_t> keep;
  const BatchDecoder decoder(schema, options, records, slot_of, &chunk, &ok);

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

  bool saw_header = !options.expect_header;
  bool at_end = false;
  while (!at_end) {
    size_t batch_n = 0;
    {
      obs::Span read_span("ingest.read");
      records.Clear();
      slot_of.clear();
      if (!saw_header) {
        saw_header = true;
        if (reader.NextBatch(1, &records) == 0) break;
        Status header = CheckHeader(schema, records, 0, rep);
        if (!header.ok()) return finish(std::move(header));
        slot_of.push_back(kNoSlot);
      }
      // Blank records of a multi-attribute table are held back: trailing
      // blank lines are silently dropped at end of input, while interior
      // blank lines are real (arity-violating) records and take their
      // slots ahead of the record that follows them. For a
      // single-attribute schema a blank line IS a legitimate record (the
      // empty string / an empty null token), so it is never held back.
      // Asking for no more records than the batch can take keeps every
      // record the reader hands out inside this batch.
      while (batch_n < batch_records) {
        const size_t want = std::max<size_t>(
            1, batch_records - std::min(batch_records,
                                        batch_n + pending_blanks.size()));
        const size_t first = records.size();
        if (reader.NextBatch(want, &records) == 0) {
          at_end = true;
          break;
        }
        for (size_t r = first; r < records.size(); ++r) {
          if (hold_blanks && records.begin[r] == records.end(r)) {
            pending_blanks.push_back(r);
            slot_of.push_back(kNoSlot);
            continue;
          }
          for (size_t blank : pending_blanks) slot_of[blank] = batch_n++;
          pending_blanks.clear();
          slot_of.push_back(batch_n++);
        }
      }
      DQ_DCHECK(at_end || pending_blanks.empty());
      pending_blanks.clear();  // trailing blanks at end of input
    }
    {
      obs::Span decode_span("ingest.decode");
      chunk.Resize(batch_n);
      if (ok.size() < batch_n) ok.resize(batch_n);
      const size_t n = records.size();
      if (threads > 1 && n > 1 && !pool.has_value()) pool.emplace(threads);
      if (pool.has_value() && n > 1) {
        pool->ParallelFor(parts.size(), [&](size_t part) {
          decoder.DecodeRange(n * part / parts.size(),
                              n * (part + 1) / parts.size(), &parts[part]);
        });
      } else {
        decoder.DecodeRange(0, n, &parts[0]);
      }
      if (at_end) pool.reset();  // the last decode stops the pool
      // A range finds its failures column by column; book them by slot.
      failures.clear();
      for (DecodePart& part : parts) {
        std::move(part.failures.begin(), part.failures.end(),
                  std::back_inserter(failures));
        part.failures.clear();
      }
      std::sort(failures.begin(), failures.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    {
      obs::Span deliver_span("ingest.deliver");
      if (batch_n == 0) continue;
      // Serial bookkeeping in record order (quarantine entries land in the
      // same sequence for every thread count), then one bulk delivery of
      // the kept slots. Under kFail, slots after the failing record stay
      // unkept — the consumer holds exactly the records before the error.
      keep.assign(batch_n, 0);
      Status failed = Status::OK();
      auto failure = failures.begin();
      for (size_t i = 0; i < batch_n; ++i) {
        ++rep->records_total;
        if (ok[i] != 0) {
          ++rep->records_kept;
          keep[i] = 1;
          continue;
        }
        DQ_DCHECK(failure != failures.end() && failure->first == i);
        ++rep->records_quarantined;
        rep->errors.push_back(std::move(failure->second));
        ++failure;
        if (options.on_error == CsvErrorPolicy::kFail) {
          failed = Status::IOError(FormatIngestError(rep->errors.back()));
          break;
        }
      }
      Status delivered = deliver(chunk, keep);
      if (!delivered.ok()) return finish(std::move(delivered));
      if (!failed.ok()) return finish(std::move(failed));
    }
  }
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
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return ReadCsvChunks(schema, &f, options, sink, report);
}

Result<Table> ReadCsvFile(const Schema& schema, const std::string& path,
                          const CsvOptions& options, IngestReport* report) {
  // Binary mode: the parser normalizes CRLF/CR record terminators itself
  // and quoted embedded newlines must reach it unmodified.
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return ReadCsv(schema, &f, options, report);
}

}  // namespace dq
