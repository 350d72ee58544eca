#include "table/csv_parser.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <string>

#include "common/check.h"
#include "table/csv_scan.h"

namespace dq {

namespace {

/// Batch storage limit: record offsets are 32-bit.
constexpr size_t kMaxBatchBytes = UINT32_MAX;

uint32_t Offset(size_t at) { return static_cast<uint32_t>(at); }

}  // namespace

const char* CsvErrorKindToString(CsvErrorKind kind) {
  switch (kind) {
    case CsvErrorKind::kUnterminatedQuote:
      return "unterminated-quote";
    case CsvErrorKind::kStrayQuote:
      return "stray-quote";
    case CsvErrorKind::kArityMismatch:
      return "arity-mismatch";
    case CsvErrorKind::kBadValue:
      return "bad-value";
    case CsvErrorKind::kBadHeader:
      return "bad-header";
  }
  return "unknown";
}

void CsvRecordBatch::Clear() {
  begin.clear();
  first_end.assign(1, 0);
  field_ends.clear();
  line.clear();
  error.clear();
}

std::string_view UnquoteCsvField(std::string_view raw, std::string* scratch) {
  if (raw.empty() || raw.front() != '"') return raw;
  // A quoted field of an error-free record is "content" whose quotes all
  // come doubled.
  scratch->clear();
  std::string_view body = raw.substr(1, raw.size() - 2);
  for (;;) {
    const size_t quote = body.find('"');
    if (quote == std::string_view::npos) break;
    scratch->append(body.data(), quote + 1);  // keeps one quote of the pair
    body.remove_prefix(std::min(quote + 2, body.size()));
  }
  scratch->append(body);
  return *scratch;
}

CsvRecordReader::CsvRecordReader(std::istream* in, char separator,
                                 size_t chunk_bytes)
    : in_(in),
      sep_(separator),
      read_bytes_(std::clamp<size_t>(chunk_bytes, 16, size_t{1} << 30)) {}

bool CsvRecordReader::Fill() {
  if (eof_) return false;
  size_t got = 0;
  if (in_ != nullptr && in_->good()) {
    const size_t need = len_ + read_bytes_ + kCsvBufferPadding;
    if (need > kMaxBatchBytes) {
      eof_ = true;
      status_ = Status::IOError(
          "CSV batch outgrows 4 GiB at byte " + std::to_string(base_ + len_) +
          " (a record this long, or too many records per batch)");
      return false;
    }
    if (storage_->size() < need) {
      // Grow by half: the storage settles near one batch plus one chunk.
      storage_->resize(std::min(
          kMaxBatchBytes,
          std::max(need, storage_->size() + storage_->size() / 2)));
      buf_ = storage_->data();
    }
    // Batches trade storages of different sizes; the index covers the
    // largest.
    if (structural_.size() < csvscan::StructuralWords(storage_->size())) {
      structural_.resize(csvscan::StructuralWords(storage_->size()));
    }
    in_->read(buf_ + len_, static_cast<std::streamsize>(read_bytes_));
    got = static_cast<size_t>(in_->gcount());
  }
  if (got == 0) {
    eof_ = true;
    // istream::read sets badbit on a read error, and when the streambuf
    // throws.
    if (in_ != nullptr && in_->bad()) {
      status_ = Status::IOError("input stream failed after " +
                                std::to_string(base_ + len_) + " bytes");
    }
    return false;
  }
  // Stage one: one SIMD classification pass extends the structural index
  // over the new bytes (rescanning the head of the word they start in).
  // ParseRecord consults only this index to find where the state machine
  // has to run.
  const size_t word = len_ >> 6;
  len_ += got;
  csvscan::ScanStructural(buf_ + (word << 6), len_ - (word << 6), sep_,
                          structural_.data() + word);
  return true;
}

void CsvRecordReader::MoveTo(std::vector<char>* storage) {
  const size_t drop = pos_ & ~size_t{63};
  const size_t keep = len_ - drop;
  if (storage != storage_) {
    if (storage->size() < keep + read_bytes_ + kCsvBufferPadding) {
      storage->resize(keep + read_bytes_ + kCsvBufferPadding);
    }
    if (keep > 0) std::memcpy(storage->data(), buf_ + drop, keep);
    storage_ = storage;
    buf_ = storage->data();
  } else if (drop > 0) {
    std::memmove(buf_, buf_ + drop, keep);
  }
  if (drop == 0) return;
  const size_t words = csvscan::StructuralWords(len_) - (drop >> 6);
  std::memmove(structural_.data(), structural_.data() + (drop >> 6),
               words * sizeof(uint64_t));
  len_ -= drop;
  pos_ -= drop;
  base_ += drop;
}

size_t CsvRecordReader::NextStructural(size_t from) const {
  size_t w = from >> 6;
  const size_t words = csvscan::StructuralWords(len_);
  if (w >= words) return len_;
  uint64_t bits = structural_[w] & (~uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      const size_t i = (w << 6) + static_cast<size_t>(std::countr_zero(bits));
      return std::min(i, len_);
    }
    if (++w >= words) return len_;
    bits = structural_[w];
  }
}

bool CsvRecordReader::ParseRecord(CsvRecordBatch* batch) {
  if (at_start_) {
    at_start_ = false;
    // Skip a UTF-8 byte-order mark.
    while (len_ - pos_ < 3 && Fill()) {
    }
    if (len_ - pos_ >= 3 &&
        static_cast<unsigned char>(buf_[pos_]) == 0xEF &&
        static_cast<unsigned char>(buf_[pos_ + 1]) == 0xBB &&
        static_cast<unsigned char>(buf_[pos_ + 2]) == 0xBF) {
      pos_ += 3;
    }
  }
  const size_t begin = pos_;
  const size_t line = line_;
  std::optional<CsvFieldError> error;
  auto fail = [&](CsvErrorKind kind, size_t column) {
    if (!error.has_value()) error = CsvFieldError{kind, column};
  };
  // No record: the input ended before one began, or the stream failed in
  // the middle of this one. A record cut short is never handed out; its
  // field ends are taken back and the reader stays before it.
  auto none = [&] {
    batch->field_ends.resize(batch->first_end.back());
    pos_ = begin;
    line_ = line;
    return false;
  };
  auto finish = [&](size_t end) {
    batch->field_ends.push_back(Offset(end));
    batch->begin.push_back(Offset(begin));
    batch->first_end.push_back(Offset(batch->field_ends.size()));
    batch->line.push_back(line);
    batch->error.push_back(error);
    return true;
  };
  // Ends the record at the terminator at pos_ - 1 (swallowing the LF of a
  // CRLF pair).
  auto terminate = [&] {
    ++line_;
    if (buf_[pos_ - 1] == '\r' && (pos_ < len_ || Fill()) &&
        buf_[pos_] == '\n') {
      ++pos_;
      return finish(pos_ - 2);
    }
    return finish(pos_ - 1);
  };
  // Stage two: the quoting state machine advances only at structural
  // positions (separators, quotes, CR, LF — the bits of the index); the
  // plain-content runs in between are skipped whole. A quote opens a
  // quoted field only at field start. After the record's first error the
  // machine keeps delimiting by the same rules, so an error never moves a
  // record boundary. Columns are 1-based offsets into the record text.
  //
  // Until the record's first quote only separators and terminators move
  // the machine, so it walks the index bits word by word.
  size_t field_start = begin;
  for (;;) {
    if (pos_ >= len_ && !Fill()) {  // end of input
      if (pos_ == begin || !status_.ok()) return none();
      return finish(pos_);
    }
    size_t w = pos_ >> 6;
    const size_t words = csvscan::StructuralWords(len_);
    uint64_t bits = structural_[w] & (~uint64_t{0} << (pos_ & 63));
    size_t at = len_;
    while (at == len_) {
      while (bits == 0 && ++w < words) bits = structural_[w];
      if (bits == 0) break;
      const size_t i = (w << 6) + static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (i >= len_) break;
      if (buf_[i] != sep_) {
        at = i;
      } else {
        batch->field_ends.push_back(Offset(i));
        field_start = i + 1;
      }
    }
    pos_ = at;
    if (at == len_) continue;  // plain content up to the end of the buffer
    if (buf_[pos_++] != '"') return terminate();
    break;
  }
  // The record's first quote, at pos_ - 1: the general machine takes over
  // for the rest of the record.
  enum class State { kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kQuoted;
  size_t quote_open = pos_ - begin;  // column of the open quoted field's quote
  if (pos_ - 1 != field_start) {
    state = State::kUnquoted;
    fail(CsvErrorKind::kStrayQuote, quote_open);
  }
  bool field_start_now = false;
  for (;;) {
    if (pos_ >= len_ && !Fill()) break;  // end of input
    const size_t next = NextStructural(pos_);
    if (next > pos_) {
      // A run of plain content bytes: nothing in it can be a separator,
      // quote or terminator, so the only state effect is leaving field
      // start (first content byte of a field) or closing a pending quote
      // (content right after a closing quote is an error).
      if (state == State::kQuoteInQuoted) {
        fail(CsvErrorKind::kStrayQuote, pos_ - begin + 1);
        state = State::kUnquoted;
      }
      field_start_now = false;
      pos_ = next;
      continue;
    }
    const char c = buf_[pos_++];
    if (state == State::kQuoted) {
      if (c == '"') {
        state = State::kQuoteInQuoted;
      } else if (c == '\n') {
        ++line_;
      }
      continue;
    }
    if (state == State::kQuoteInQuoted) {
      // The pending quote was either an escape ("" stays quoted) or the
      // closing quote (anything else drops back to unquoted scanning).
      if (c == '"') {
        state = State::kQuoted;
        continue;
      }
      state = State::kUnquoted;
    }
    if (c == '\n' || c == '\r') return terminate();
    if (c == sep_) {
      field_start_now = true;
      batch->field_ends.push_back(Offset(pos_ - 1));
    } else if (field_start_now) {  // c is a quote opening a field
      state = State::kQuoted;
      quote_open = pos_ - begin;
      field_start_now = false;
    } else {
      fail(CsvErrorKind::kStrayQuote, pos_ - begin);
    }
  }
  if (!status_.ok()) return none();
  if (state == State::kQuoted) {
    fail(CsvErrorKind::kUnterminatedQuote, quote_open);
  }
  return finish(pos_);
}

size_t CsvRecordReader::NextBatch(size_t max_records, CsvRecordBatch* batch) {
  if (batch->empty()) {
    batch->Clear();
    MoveTo(&batch->bytes);
  }
  DQ_DCHECK(storage_ == &batch->bytes);  // a batch this reader is filling
  size_t n = 0;
  while (n < max_records && ParseRecord(batch)) ++n;
  return n;
}

}  // namespace dq
