// Low-level streaming RFC-4180 tokenizer: bytes -> records -> fields.
//
// CsvRecordReader scans the input stream in fixed-size chunks and yields
// one record at a time. The scan is two-stage: a SIMD pass (csv_scan.h)
// classifies each chunk into a structural index — one bit per byte, set at
// separators, quotes and record terminators — and the quote-aware state
// machine then advances only at the set bits, bulk-appending the
// plain-content runs in between. Quoted fields may span record terminators
// (LF, CRLF or lone CR) and memory use is bounded by the chunk size plus
// the largest single record, independent of file size. The same machine
// that delimits the record also records where each field ends and the
// record's first quoting error, so it is the only code that interprets
// quotes. The schema-aware layer in table/csv.h builds Tables and
// IngestReports on top of it.

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

/// \brief One record: the bytes between two unquoted record terminators
/// (terminator stripped), the 1-based line it starts on, where each field
/// ends and the first quoting error, if any.
struct RawCsvRecord {
  std::string text;
  size_t line = 1;
  /// Offset in `text` of each field's end: its unquoted separator, or
  /// text.size() for the last field. An empty record has one empty field.
  std::vector<size_t> field_ends;
  /// The first stray quote (inside an unquoted field, or right after a
  /// closing quote) or the unterminated quoted field the input ended in.
  std::optional<CsvFieldError> error;

  size_t num_fields() const { return field_ends.size(); }

  /// \brief Field `i` of a record without error. A field that starts with
  /// a quote is unescaped (outer quotes dropped, "" -> ") into `*scratch`
  /// and the view points there; any other field is a view into `text`.
  std::string_view Field(size_t i, std::string* scratch) const;
};

/// \brief Pulls records out of a stream in fixed-size chunks.
///
/// A UTF-8 byte-order mark at the start of the stream is skipped. LF, CRLF
/// and lone CR all terminate a record (normalized away); newlines inside
/// quoted fields are content and kept verbatim. A terminator at end of
/// input does not open a final empty record, so `a\n` is one record while
/// `a\n\n` is two (the second empty).
class CsvRecordReader {
 public:
  CsvRecordReader(std::istream* in, char separator, size_t chunk_bytes);

  /// \brief Reads the next record into `out`; false at end of input.
  bool Next(RawCsvRecord* out);

  /// \brief Total bytes consumed so far (including any skipped BOM).
  size_t bytes_read() const { return bytes_read_; }

 private:
  /// Refills the chunk buffer and rebuilds its structural index; false at
  /// end of stream.
  bool Refill();

  /// First structural position (separator, quote, CR or LF) at or after
  /// `from` in the current chunk; len_ when the rest is plain content.
  size_t NextStructural(size_t from) const;

  std::istream* in_;
  char sep_;
  std::vector<char> buf_;
  /// Structural index of buf_[0, len_): one bit per byte, set at
  /// separators, quotes and record terminators (csv_scan.h). Rebuilt by
  /// Refill with one SIMD pass; Next() walks only the set bits.
  std::vector<uint64_t> structural_;
  size_t pos_ = 0;
  size_t len_ = 0;
  size_t line_ = 1;
  size_t bytes_read_ = 0;
  bool at_start_ = true;
};

}  // namespace dq

#endif  // DQ_TABLE_CSV_PARSER_H_
