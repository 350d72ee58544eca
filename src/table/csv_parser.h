// Low-level streaming RFC-4180 tokenizer: bytes -> record batches -> fields.
//
// CsvRecordReader reads the input stream in fixed-size chunks into one
// buffer and hands out batches of complete records as offsets into it; no
// record is copied. The scan is two-stage: a SIMD pass (csv_scan.h)
// classifies each chunk into a structural index — one bit per byte, set at
// separators, quotes and record terminators — and the quote-aware state
// machine then runs only at the set bits. Quoted fields may span record
// terminators (LF, CRLF or lone CR). The same machine that delimits a
// record also records where each of its fields ends and its first quoting
// error, so it is the only code that interprets quotes. The schema-aware
// layer in table/csv.h decodes the batches into Tables and IngestReports.
//
// Memory: the buffer holds the records of the current batch plus at most
// one chunk read ahead of the last of them, so it is bounded by the batch
// size (records × record length) plus `chunk_bytes`, independent of file
// size. A record longer than the buffer grows it.

#ifndef DQ_TABLE_CSV_PARSER_H_
#define DQ_TABLE_CSV_PARSER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dq {

/// \brief What is wrong with one ingested CSV record.
enum class CsvErrorKind {
  kUnterminatedQuote,  ///< a quoted field is still open at end of input
  kStrayQuote,         ///< quote inside an unquoted field or after a close
  kArityMismatch,      ///< field count differs from the schema
  kBadValue,           ///< a field does not parse into its attribute domain
  kBadHeader,          ///< header row malformed or not matching the schema
};

/// \brief Stable kebab-case spelling ("stray-quote", ...) used in reports.
const char* CsvErrorKindToString(CsvErrorKind kind);

/// \brief Quoting error of one record: error kind plus the 1-based byte
/// offset of the offending character within the record's text (for quoted
/// fields the record may span lines, so the offset is relative to the
/// record start).
struct CsvFieldError {
  CsvErrorKind kind = CsvErrorKind::kStrayQuote;
  size_t column = 0;
};

/// \brief Records handed out by CsvRecordReader::NextBatch: offsets into
/// the reader's buffer. A record is the bytes between two unquoted record
/// terminators (terminator excluded), so its text is one contiguous range.
/// Valid until the reader's next NextBatch call on an empty batch.
struct CsvRecordBatch {
  /// The reader's buffer; every offset below indexes it. At least
  /// kCsvBufferPadding readable bytes follow any offset a record holds.
  const char* data = nullptr;
  /// Offset of each record's first byte.
  std::vector<size_t> begin;
  /// Record r's field ends are field_ends[first_end[r], first_end[r + 1]);
  /// first_end has size() + 1 entries.
  std::vector<size_t> first_end = {0};
  /// Offset of each field's end: its unquoted separator, or the record end
  /// for the last field. An empty record has one empty field.
  std::vector<size_t> field_ends;
  /// 1-based line each record starts on.
  std::vector<size_t> line;
  /// The first stray quote (inside an unquoted field, or right after a
  /// closing quote) or the unterminated quoted field the input ended in.
  std::vector<std::optional<CsvFieldError>> error;

  size_t size() const { return begin.size(); }
  bool empty() const { return begin.empty(); }
  void Clear();

  size_t num_fields(size_t r) const { return first_end[r + 1] - first_end[r]; }
  size_t end(size_t r) const { return field_ends[first_end[r + 1] - 1]; }
  std::string_view text(size_t r) const {
    return std::string_view(data + begin[r], end(r) - begin[r]);
  }
  /// \brief Raw bytes of field `i` of record `r`, quotes included.
  std::string_view RawField(size_t r, size_t i) const {
    const size_t* ends = field_ends.data() + first_end[r];
    const size_t from = i == 0 ? begin[r] : ends[i - 1] + 1;
    return std::string_view(data + from, ends[i] - from);
  }
};

/// \brief Readable bytes the reader keeps past its last valid byte, so a
/// decoder may load 8 bytes from any field start.
inline constexpr size_t kCsvBufferPadding = 8;

/// \brief Field text of a record without error: a field that starts with a
/// quote is unescaped (outer quotes dropped, "" -> ") into `*scratch` and
/// the view points there; any other field is returned as is.
std::string_view UnquoteCsvField(std::string_view raw, std::string* scratch);

/// \brief Pulls batches of records out of a stream.
///
/// A UTF-8 byte-order mark at the start of the stream is skipped. LF, CRLF
/// and lone CR all terminate a record (normalized away); newlines inside
/// quoted fields are content and kept verbatim. A terminator at end of
/// input does not open a final empty record, so `a\n` is one record while
/// `a\n\n` is two (the second empty).
class CsvRecordReader {
 public:
  /// `chunk_bytes` is the read granularity (at least 16 bytes are read at
  /// a time).
  CsvRecordReader(std::istream* in, char separator, size_t chunk_bytes);

  /// \brief Appends up to `max_records` (> 0) complete records to `batch`;
  /// returns how many, 0 at end of input. When `batch` is empty the
  /// bytes of earlier records are released first; otherwise the records
  /// it holds stay valid and the buffer grows to keep them.
  size_t NextBatch(size_t max_records, CsvRecordBatch* batch);

  /// \brief Total bytes consumed so far (including any skipped BOM): the
  /// stream offset just past the last record handed out.
  size_t bytes_read() const { return base_ + pos_; }

 private:
  /// Appends the next chunk of the stream to the buffer and extends the
  /// structural index over it; false at end of stream.
  bool Fill();

  /// Moves the unread tail to the buffer's front (keeping its position
  /// within a 64-byte index word) and drops the index words before it.
  void Compact();

  /// First structural position at or after `from`; len_ when the rest of
  /// the buffer is plain content.
  size_t NextStructural(size_t from) const;

  /// Parses one record starting at pos_ into `batch`; false at end of
  /// input.
  bool ParseRecord(CsvRecordBatch* batch);

  std::istream* in_;
  char sep_;
  size_t read_bytes_;
  bool eof_ = false;
  /// buf_[0, len_) holds input bytes; kCsvBufferPadding zero bytes follow.
  std::vector<char> buf_;
  /// Structural index of buf_[0, len_): one bit per byte, set at
  /// separators, quotes and record terminators (csv_scan.h). Extended by
  /// Fill with one SIMD pass over each new chunk.
  std::vector<uint64_t> structural_;
  size_t pos_ = 0;   ///< parse position in buf_
  size_t len_ = 0;   ///< valid bytes in buf_
  size_t base_ = 0;  ///< stream offset of buf_[0]
  size_t line_ = 1;
  bool at_start_ = true;
};

}  // namespace dq

#endif  // DQ_TABLE_CSV_PARSER_H_
