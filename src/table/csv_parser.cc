#include "table/csv_parser.h"

#include <algorithm>
#include <bit>
#include <istream>

#include "table/csv_scan.h"

namespace dq {

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

std::string_view RawCsvRecord::Field(size_t i, std::string* scratch) const {
  const size_t begin = i == 0 ? 0 : field_ends[i - 1] + 1;
  const std::string_view field(text.data() + begin, field_ends[i] - begin);
  if (field.empty() || field.front() != '"') return field;
  // A quoted field of an error-free record is "content" whose quotes all
  // come doubled.
  scratch->clear();
  std::string_view body = field.substr(1, field.size() - 2);
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
    : in_(in), sep_(separator), buf_(std::max<size_t>(chunk_bytes, 16)) {
  structural_.resize(csvscan::StructuralWords(buf_.size()));
}

bool CsvRecordReader::Refill() {
  if (in_ == nullptr || !in_->good()) return false;
  in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  len_ = static_cast<size_t>(in_->gcount());
  pos_ = 0;
  if (len_ > 0) {
    // Stage one: one SIMD classification pass builds the structural index
    // of the whole chunk. Next() consults only this index to find the
    // bytes where the state machine has to run.
    csvscan::ScanStructural(buf_.data(), len_, sep_, structural_.data());
  }
  return len_ > 0;
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

bool CsvRecordReader::Next(RawCsvRecord* out) {
  if (at_start_) {
    at_start_ = false;
    // Skip a UTF-8 byte-order mark. The buffer holds at least 16 bytes, so
    // one refill is enough to see all three BOM bytes of a non-empty file.
    if (pos_ >= len_) Refill();
    if (len_ - pos_ >= 3 &&
        static_cast<unsigned char>(buf_[pos_]) == 0xEF &&
        static_cast<unsigned char>(buf_[pos_ + 1]) == 0xBB &&
        static_cast<unsigned char>(buf_[pos_ + 2]) == 0xBF) {
      pos_ += 3;
      bytes_read_ += 3;
    }
  }
  std::string& text = out->text;
  text.clear();
  out->line = line_;
  out->field_ends.clear();
  out->error.reset();
  auto fail = [out](CsvErrorKind kind, size_t column) {
    if (!out->error.has_value()) out->error = CsvFieldError{kind, column};
  };
  // Stage two: the quoting state machine advances only at structural
  // positions (separators, quotes, CR, LF — the bits of the index); the
  // plain-content runs in between are bulk appends. A quote opens a quoted
  // field only at field start. After the record's first error the machine
  // keeps delimiting by the same rules, so an error never moves a record
  // boundary. Columns are 1-based offsets into the record text.
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kFieldStart;
  size_t quote_open = 0;  // column of the open quoted field's quote
  bool any = false;
  for (;;) {
    if (pos_ >= len_ && !Refill()) break;  // end of input
    const size_t next = NextStructural(pos_);
    if (next > pos_) {
      // A run of plain content bytes: nothing in it can be a separator,
      // quote or terminator, so the only state effect is leaving field
      // start (first content byte of a field) or closing a pending quote
      // (content right after a closing quote is an error).
      if (state == State::kQuoteInQuoted) {
        fail(CsvErrorKind::kStrayQuote, text.size() + 1);
      }
      text.append(buf_.data() + pos_, next - pos_);
      bytes_read_ += next - pos_;
      pos_ = next;
      any = true;
      if (state == State::kFieldStart || state == State::kQuoteInQuoted) {
        state = State::kUnquoted;
      }
      continue;
    }
    const char c = buf_[pos_++];
    ++bytes_read_;
    any = true;
    if (state == State::kQuoted) {
      if (c == '"') {
        state = State::kQuoteInQuoted;
      } else if (c == '\n') {
        ++line_;
      }
      text += c;
      continue;
    }
    if (state == State::kQuoteInQuoted) {
      // The pending quote was either an escape ("" stays quoted) or the
      // closing quote (anything else drops back to unquoted scanning).
      state = (c == '"') ? State::kQuoted : State::kUnquoted;
    }
    if (state != State::kQuoted && (c == '\n' || c == '\r')) {
      ++line_;
      out->field_ends.push_back(text.size());
      if (c == '\r') {  // swallow the LF of a CRLF pair
        if (pos_ >= len_ && !Refill()) return true;
        if (buf_[pos_] == '\n') {
          ++pos_;
          ++bytes_read_;
        }
      }
      return true;
    }
    if (c == sep_) {
      state = State::kFieldStart;
      out->field_ends.push_back(text.size());
    } else if (c == '"' && state == State::kFieldStart) {
      state = State::kQuoted;
      quote_open = text.size() + 1;
    } else if (c == '"' && state == State::kUnquoted) {
      fail(CsvErrorKind::kStrayQuote, text.size() + 1);
    }
    text += c;
  }
  if (!any) return false;
  out->field_ends.push_back(text.size());
  if (state == State::kQuoted) {
    fail(CsvErrorKind::kUnterminatedQuote, quote_open);
  }
  return true;
}

}  // namespace dq
