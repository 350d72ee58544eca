#include "table/csv.h"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
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

/// One batch of the ingest pipeline, from its cut to its delivery: the
/// records with the bytes they point into, each record's chunk slot, the
/// decoded chunk with its ok flags and quarantine entries, and where the
/// read stood after the cut.
struct Batch {
  explicit Batch(const Schema& schema) : chunk(schema) {}

  CsvRecordBatch records;
  /// Chunk slot of each record; kNoSlot for the header and for blank
  /// lines at the end of the input.
  std::vector<size_t> slot_of;
  size_t rows = 0;  ///< chunk slots the records fill
  TableChunk chunk;
  std::vector<uint8_t> ok;  ///< per slot: the record decoded cleanly
  std::string scratch;      ///< a quoted field's unescaped text
  /// Quarantine entries of the failed records, keyed by slot.
  std::vector<std::pair<size_t, IngestError>> failures;
  size_t bytes_read = 0;  ///< the reader's bytes_read() after the cut
  bool last = false;      ///< the input ended (or failed) in this batch
  /// The read ended at the header, with nothing to decode or deliver: the
  /// input has no header, or header_error says what is wrong with it.
  bool at_header = false;
  std::optional<IngestError> header_error;
  Status read_status;  ///< the reader's status() after the cut
};

/// Decodes the records of one batch column by column, straight into the
/// typed columns of their chunk slots. Records are fully validated against
/// the schema (so assembly can bulk-append unchecked). A slot whose record
/// fails keeps its first failing attribute's error (records are checked
/// attribute by attribute, in schema order) and may hold a partial prefix
/// of cells; the keep mask drops it at AppendChunk time. The decoder
/// touches only its batch, so batches decode on any thread.
class BatchDecoder {
 public:
  BatchDecoder(const Schema& schema, const CsvOptions& options, Batch* batch)
      : schema_(schema),
        options_(options),
        records_(batch->records),
        slot_of_(batch->slot_of),
        chunk_(&batch->chunk),
        ok_(batch->ok),
        scratch_(batch->scratch),
        failures_(batch->failures) {}

  void Decode() const {
    // Blocks small enough that a block's field ends and record bytes stay
    // in L1 across its column passes.
    constexpr size_t kBlock = 256;
    const size_t n = records_.size();
    for (size_t from = 0; from < n; from += kBlock) {
      DecodeBlock(from, std::min(n, from + kBlock));
    }
  }

 private:
  void DecodeBlock(size_t begin, size_t end) const {
    const size_t arity = schema_.num_attributes();
    for (size_t r = begin; r < end; ++r) {
      const size_t slot = slot_of_[r];
      if (slot == kNoSlot) continue;
      ok_[slot] = 1;
      if (const auto& error = records_.error[r]; error.has_value()) {
        Fail(r, error->kind, error->column,
             error->kind == CsvErrorKind::kUnterminatedQuote
                 ? "quoted field never closed"
                 : "quote inside an unquoted field or after a closing quote");
      } else if (records_.num_fields(r) != arity) {
        Fail(r, CsvErrorKind::kArityMismatch, 0,
             "expected " + std::to_string(arity) + " fields, got " +
                 std::to_string(records_.num_fields(r)));
      }
    }
    for (size_t a = 0; a < arity; ++a) {
      const AttributeDef& def = schema_.attribute(a);
      switch (def.type) {
        case DataType::kNominal: {
          // An unquoted field is a view into the batch's bytes, which keep
          // the padding FindPadded's 8-byte load needs.
          static_assert(kCsvBufferPadding >= 8);
          const CategoryDictionary& dict = def.dictionary;
          int32_t* codes = chunk_->code_slots(a);
          DecodeColumn(a, begin, end, [&](std::string_view field, bool padded,
                                          size_t slot) {
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
          DecodeColumn(a, begin, end, [&](std::string_view field, bool,
                                          size_t slot) {
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
          DecodeColumn(a, begin, end, [&](std::string_view field, bool,
                                          size_t slot) {
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
  void DecodeColumn(size_t a, size_t begin, size_t end,
                    const Fast& fast) const {
    // Locals, not CsvRecordBatch::RawField: the byte stores below may
    // alias anything, which would reload every vector's data pointer per
    // cell.
    uint8_t* const nulls = chunk_->null_slots(a);
    const uint8_t* const ok = ok_.data();
    const size_t* const slot_of = slot_of_.data();
    const char* const data = records_.data();
    const uint32_t* const record_begin = records_.begin.data();
    const uint32_t* const first_end = records_.first_end.data();
    const uint32_t* const field_ends = records_.field_ends.data();
    const std::string_view null_token = options_.null_token;
    for (size_t r = begin; r < end; ++r) {
      const size_t slot = slot_of[r];
      if (slot == kNoSlot || ok[slot] == 0) continue;
      const uint32_t* ends = field_ends + first_end[r];
      const size_t from = a == 0 ? record_begin[r] : ends[a - 1] + 1;
      const std::string_view raw(data + from, ends[a] - from);
      const bool quoted = !raw.empty() && raw.front() == '"';
      const std::string_view field =
          quoted ? UnquoteCsvField(raw, &scratch_) : raw;
      if (field == null_token) {
        chunk_->SetNull(slot, a);
        continue;
      }
      nulls[slot] = 0;
      if (!fast(field, !quoted, slot)) SlowCell(r, a, field, slot);
    }
  }

  /// The cell is malformed, out of domain, or spelled in a way the fast
  /// paths do not take (" 5000", "2003-6-1"): Schema::ParseValue decides,
  /// so a quarantine entry carries the exact message it gives and an
  /// accepted spelling stores the value it parses to.
  void SlowCell(size_t r, size_t a, std::string_view field,
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
      Fail(r, CsvErrorKind::kBadValue, 0,
           "attribute '" + def.name + "': " + value.status().message());
      return;
    }
    chunk_->Set(slot, a, *value);
  }

  void Fail(size_t r, CsvErrorKind kind, size_t column,
            std::string message) const {
    const size_t slot = slot_of_[r];
    ok_[slot] = 0;
    IngestError& error = failures_.emplace_back(slot, IngestError()).second;
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
  std::string& scratch_;
  std::vector<std::pair<size_t, IngestError>>& failures_;
};

/// What is wrong with the header record `r`, if anything.
std::optional<IngestError> CheckHeader(const Schema& schema,
                                       const CsvRecordBatch& records,
                                       size_t r) {
  auto fail = [&](size_t column, std::string message) {
    IngestError err;
    err.line = records.line[r];
    err.column = column;
    err.kind = CsvErrorKind::kBadHeader;
    err.message = std::move(message);
    err.raw = TruncatedRaw(records.text(r));
    return err;
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
  return std::nullopt;
}

/// The ordered pipeline behind ReadCsvDriver: a ring of one batch slot per
/// thread, read ahead of delivery.
///
/// One thread at a time cuts the next batch of records into a free slot
/// (`ingest.read`), any thread decodes a cut batch whole
/// (`ingest.decode`), and the caller takes the batches back in order to
/// deliver them. The threads - 1 helpers decode the oldest cut batch first
/// (but leave the caller the batch it waits for) and otherwise cut the
/// next one; the caller cuts or decodes only the batch it must deliver
/// next, when no helper has claimed it. Batch k lives in slot k % slots,
/// which is cut again only after batch k was delivered, so a slot belongs
/// to one thread at a time and mu_ hands it over. At one thread there is
/// one slot and no helper: the caller cuts, decodes and delivers each
/// batch in turn.
class IngestPipeline {
 public:
  IngestPipeline(const Schema& schema, std::istream* in,
                 const CsvOptions& options, int threads)
      : schema_(schema),
        options_(options),
        reader_(in, options.separator, options.chunk_bytes),
        batch_records_(std::max<size_t>(options.batch_records, 1)),
        hold_blanks_(schema.num_attributes() > 1),
        saw_header_(!options.expect_header),
        state_(static_cast<size_t>(threads), State::kFree) {
    slots_.reserve(state_.size());
    for (size_t s = 0; s < state_.size(); ++s) slots_.emplace_back(schema);
    // Helpers record their spans under the caller's `ingest` span.
    const obs::TaskContext context = obs::Tracer::Global().CurrentContext();
    try {
      for (int h = 1; h < threads; ++h) {
        helpers_.emplace_back([this, context] { Help(context); });
      }
    } catch (...) {
      Shutdown();
      throw;
    }
  }

  /// Cancels the helpers and joins them; each first finishes the cut or
  /// decode it is in.
  ~IngestPipeline() { Shutdown(); }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Batch k, cut and decoded; the caller does the work itself while no
  /// helper has claimed it. Rethrows what a helper threw.
  Batch& Take(size_t k) {
    const size_t s = k % slots_.size();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (error_) std::rethrow_exception(error_);
      if (state_[s] == State::kDecoded) return slots_[s];
      if (state_[s] == State::kCut) {
        state_[s] = State::kDecoding;
        lock.unlock();
        Decode(&slots_[s]);
        lock.lock();
        state_[s] = State::kDecoded;
      } else if (state_[s] == State::kFree && !cutting_) {
        DQ_DCHECK(next_cut_ == k);
        cutting_ = true;
        lock.unlock();
        Cut(&slots_[s]);
        lock.lock();
        CutDone(s);
      } else {
        // A helper cuts batch k or decodes it; either end wakes us.
        caller_waiting_ = true;
        caller_cv_.wait(lock, [&] {
          return error_ || state_[s] == State::kCut ||
                 state_[s] == State::kDecoded;
        });
        caller_waiting_ = false;
      }
    }
  }

  /// Hands batch k's slot back to the read-ahead.
  void Release(size_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    state_[k % slots_.size()] = State::kFree;
    next_take_ = k + 1;
    if (CanCut()) helper_cv_.notify_one();
  }

 private:
  enum class State { kFree, kCut, kDecoding, kDecoded };

  /// Tokenizes the next batch into `b` and assigns its records chunk
  /// slots. Runs on the thread that set cutting_.
  void Cut(Batch* b) {
    obs::Span span("ingest.read");
    CsvRecordBatch& records = b->records;
    records.Clear();
    b->slot_of.clear();
    b->at_header = false;
    b->header_error.reset();
    size_t rows = 0;
    bool at_end = false;
    if (!saw_header_) {
      saw_header_ = true;
      if (reader_.NextBatch(1, &records) == 0) {
        b->at_header = true;  // an empty input, or one that failed at once
      } else {
        b->header_error = CheckHeader(schema_, records, 0);
        b->at_header = b->header_error.has_value();
        b->slot_of.push_back(kNoSlot);
      }
      at_end = b->at_header;
    }
    // Blank records of a multi-attribute table are held back: trailing
    // blank lines are silently dropped at end of input, while interior
    // blank lines are real (arity-violating) records and take their
    // slots ahead of the record that follows them. For a
    // single-attribute schema a blank line IS a legitimate record (the
    // empty string / an empty null token), so it is never held back.
    // Asking for no more records than the batch can take keeps every
    // record the reader hands out inside this batch.
    while (!at_end && rows < batch_records_) {
      const size_t want = std::max<size_t>(
          1, batch_records_ - std::min(batch_records_,
                                       rows + pending_blanks_.size()));
      const size_t first = records.size();
      if (reader_.NextBatch(want, &records) == 0) {
        at_end = true;
        break;
      }
      for (size_t r = first; r < records.size(); ++r) {
        if (hold_blanks_ && records.begin[r] == records.end(r)) {
          pending_blanks_.push_back(r);
          b->slot_of.push_back(kNoSlot);
          continue;
        }
        for (size_t blank : pending_blanks_) b->slot_of[blank] = rows++;
        pending_blanks_.clear();
        b->slot_of.push_back(rows++);
      }
    }
    DQ_DCHECK(at_end || pending_blanks_.empty());
    pending_blanks_.clear();  // trailing blanks at end of input
    b->rows = rows;
    b->last = at_end;
    b->bytes_read = reader_.bytes_read();
    b->read_status = reader_.status();
  }

  void Decode(Batch* b) const {
    obs::Span span("ingest.decode");
    b->chunk.Resize(b->rows);
    if (b->ok.size() < b->rows) b->ok.resize(b->rows);
    b->failures.clear();
    BatchDecoder(schema_, options_, b).Decode();
    // Records fail column by column; book them by slot.
    std::sort(b->failures.begin(), b->failures.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
  }

  /// Under mu_: a free slot waits for the next batch and no one cuts.
  bool CanCut() const {
    return !cutting_ && !input_done_ &&
           next_cut_ < next_take_ + slots_.size();
  }

  /// Under mu_: the batch a helper decodes next, next_cut_ for none. The
  /// oldest cut one, since the caller needs it soonest; but an idle caller
  /// decodes its own batch, and the helper cuts ahead instead.
  size_t DecodeJob() const {
    size_t k = next_take_ + (caller_waiting_ ? 1 : 0);
    while (k < next_cut_ && state_[k % slots_.size()] != State::kCut) ++k;
    return k;
  }

  /// Under mu_: the batch just cut is in slot `s`. A waiting caller
  /// decodes it; otherwise the thread that cut it decodes the oldest cut
  /// batch next, so only the cutter's job needs a new taker.
  void CutDone(size_t s) {
    state_[s] = slots_[s].at_header ? State::kDecoded : State::kCut;
    cutting_ = false;
    if (next_cut_++ == next_take_ && caller_waiting_) caller_cv_.notify_one();
    input_done_ = slots_[s].last;
    if (CanCut()) helper_cv_.notify_one();
  }

  void Help(obs::TaskContext context) {
    obs::TaskScope scope(context);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      helper_cv_.wait(lock, [&] {
        return cancelled_ || input_done_ || CanCut() ||
               DecodeJob() < next_cut_;
      });
      if (cancelled_) return;
      const size_t k = DecodeJob();
      const bool decode = k < next_cut_;
      if (!decode && !CanCut()) return;  // nothing left to cut or decode
      const size_t s = k % slots_.size();
      if (decode) {
        state_[s] = State::kDecoding;
      } else {
        cutting_ = true;
      }
      lock.unlock();
      try {
        if (decode) {
          Decode(&slots_[s]);
        } else {
          Cut(&slots_[s]);
        }
      } catch (...) {
        lock.lock();
        if (!error_) error_ = std::current_exception();
        cancelled_ = true;
        caller_cv_.notify_all();
        helper_cv_.notify_all();
        return;
      }
      lock.lock();
      if (!decode) {
        CutDone(s);
      } else {
        state_[s] = State::kDecoded;
        if (k == next_take_) caller_cv_.notify_one();
      }
    }
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    helper_cv_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  const Schema& schema_;
  const CsvOptions& options_;

  // The cutter's state: only the thread that set cutting_ touches it.
  CsvRecordReader reader_;
  const size_t batch_records_;
  const bool hold_blanks_;
  bool saw_header_;
  std::vector<size_t> pending_blanks_;

  std::vector<Batch> slots_;

  std::mutex mu_;
  std::condition_variable caller_cv_;  ///< the caller waits for its batch
  std::condition_variable helper_cv_;  ///< helpers wait for work
  // Guarded by mu_.
  std::vector<State> state_;  ///< per slot
  size_t next_cut_ = 0;       ///< batches cut so far
  size_t next_take_ = 0;      ///< batches delivered and released so far
  bool cutting_ = false;      ///< a thread holds the cutter
  bool caller_waiting_ = false;  ///< the caller sleeps in Take
  bool input_done_ = false;   ///< the last batch is cut
  bool cancelled_ = false;
  std::exception_ptr error_;  ///< what a helper threw

  std::vector<std::thread> helpers_;  ///< last: joined before the rest goes
};

/// Shared streaming driver behind ReadCsv and ReadCsvChunks. The pipeline
/// cuts (`ingest.read`) and decodes (`ingest.decode`) each batch on
/// whichever thread takes it; the calling thread does the quarantine
/// bookkeeping in record order and hands the chunk plus keep mask to
/// `deliver` (`ingest.deliver`). The delivered sequence, the report and
/// the status are identical whichever consumer sits on the other end, and
/// for every thread count: a header error, a kFail record, a sink error
/// and a read error each stop the read where they stand in record order.
Status ReadCsvDriver(const Schema& schema, std::istream* in,
                     const CsvOptions& options, IngestReport* rep,
                     const std::function<Status(const TableChunk&,
                                                const std::vector<uint8_t>&)>&
                         deliver) {
  obs::Span span("ingest");
  *rep = IngestReport();

  const int threads = ResolveThreadCount(options.num_threads);
  rep->threads_used = threads;

  auto finish = [&](Status status, const Batch& last) {
    rep->bytes_read = last.bytes_read;
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

  IngestPipeline pipeline(schema, in, options, threads);
  std::vector<uint8_t> keep;
  for (size_t k = 0;; ++k) {
    Batch& batch = pipeline.Take(k);
    if (batch.header_error.has_value()) {
      rep->errors.push_back(std::move(*batch.header_error));
      return finish(Status::IOError(FormatIngestError(rep->errors.back())),
                    batch);
    }
    if (batch.at_header) return finish(batch.read_status, batch);
    {
      obs::Span deliver_span("ingest.deliver");
      if (batch.rows > 0) {
        // Serial bookkeeping in record order (quarantine entries land in
        // the same sequence for every thread count), then one bulk
        // delivery of the kept slots. Under kFail, slots after the failing
        // record stay unkept — the consumer holds exactly the records
        // before the error.
        keep.assign(batch.rows, 0);
        Status failed = Status::OK();
        auto failure = batch.failures.begin();
        for (size_t i = 0; i < batch.rows; ++i) {
          ++rep->records_total;
          if (batch.ok[i] != 0) {
            ++rep->records_kept;
            keep[i] = 1;
            continue;
          }
          DQ_DCHECK(failure != batch.failures.end() && failure->first == i);
          ++rep->records_quarantined;
          rep->errors.push_back(std::move(failure->second));
          ++failure;
          if (options.on_error == CsvErrorPolicy::kFail) {
            failed = Status::IOError(FormatIngestError(rep->errors.back()));
            break;
          }
        }
        Status delivered = deliver(batch.chunk, keep);
        if (!delivered.ok()) return finish(std::move(delivered), batch);
        if (!failed.ok()) return finish(std::move(failed), batch);
      }
    }
    if (batch.last) return finish(batch.read_status, batch);
    pipeline.Release(k);
  }
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
