// Tests for the streaming CSV parser: RFC-4180 round trips (embedded
// newlines/quotes/separators/CRLF), strict vs lenient error handling with
// IngestReport quarantine, tokenizer chunking, and parallel-vs-serial
// determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "mutate.h"
#include "pollution/pipeline.h"
#include "quis/quis_sample.h"
#include "table/csv.h"
#include "table/csv_parser.h"
#include "table/date.h"
#include "table/ingest_report.h"

namespace dq {
namespace {

Schema NastySchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("name", {"plain", "a,b", "with \"quote\"",
                                    "line1\nline2", "crlf\r\nval",
                                    "trailing\"", "\ttabbed"})
                  .ok());
  EXPECT_TRUE(s.AddNumeric("weight", -1000.0, 1000.0).ok());
  EXPECT_TRUE(s.AddDate("built", DaysFromCivil({1995, 1, 1}),
                        DaysFromCivil({2010, 12, 31}))
                  .ok());
  return s;
}

Table NastyTable(const Schema& s) {
  Table t(s);
  for (int32_t code = 0; code < 7; ++code) {
    EXPECT_TRUE(t.AppendRow({Value::Nominal(code),
                             Value::Numeric(0.25 * code),
                             Value::Date(DaysFromCivil({2001, 2, 3}) + code)})
                    .ok());
  }
  EXPECT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  return t;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      EXPECT_TRUE(a.cell(r, c).StrictEquals(b.cell(r, c)))
          << "row " << r << " attr " << c;
    }
  }
}

// --- tokenizer --------------------------------------------------------------

/// One record copied out of a reader batch: its text, line, raw fields
/// (quotes included), field ends relative to the record start and first
/// quoting error.
struct TokenizedRecord {
  std::string text;
  size_t line = 0;
  std::vector<std::string> raw_fields;
  std::vector<size_t> field_ends;
  std::optional<CsvFieldError> error;
};

std::vector<TokenizedRecord> Tokenize(const std::string& text,
                                      size_t chunk_bytes,
                                      size_t batch_records = 4096) {
  std::istringstream is(text);
  CsvRecordReader reader(&is, ',', chunk_bytes);
  CsvRecordBatch batch;
  std::vector<TokenizedRecord> records;
  for (;;) {
    batch.Clear();
    if (reader.NextBatch(batch_records, &batch) == 0) break;
    for (size_t r = 0; r < batch.size(); ++r) {
      TokenizedRecord rec;
      rec.text = std::string(batch.text(r));
      rec.line = batch.line[r];
      for (size_t i = 0; i < batch.num_fields(r); ++i) {
        rec.raw_fields.emplace_back(batch.RawField(r, i));
        rec.field_ends.push_back(
            batch.field_ends[batch.first_end[r] + i] - batch.begin[r]);
      }
      rec.error = batch.error[r];
      records.push_back(std::move(rec));
    }
  }
  return records;
}

TEST(CsvRecordReaderTest, QuotedNewlinesSpanRecords) {
  // Chunk size 1 forces a refill on every byte: boundaries cannot depend on
  // where chunks happen to split.
  for (size_t chunk : {size_t{1}, size_t{4}, size_t{1 << 16}}) {
    auto records = Tokenize("a,\"x\ny\"\nb,c\n", chunk);
    ASSERT_EQ(records.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(records[0].text, "a,\"x\ny\"");
    EXPECT_EQ(records[0].line, 1u);
    EXPECT_EQ(records[1].text, "b,c");
    EXPECT_EQ(records[1].line, 3u);  // the quoted field spanned line 2
  }
}

TEST(CsvRecordReaderTest, TerminatorVariants) {
  auto records = Tokenize("a\r\nb\rc\n", 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].text, "a");
  EXPECT_EQ(records[1].text, "b");
  EXPECT_EQ(records[2].text, "c");
}

TEST(CsvRecordReaderTest, TrailingNewlineOpensNoRecord) {
  EXPECT_EQ(Tokenize("a\n", 8).size(), 1u);
  auto records = Tokenize("a\n\n", 8);  // terminated empty record is real
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].text, "");
  EXPECT_EQ(Tokenize("a", 8).size(), 1u);  // EOF terminates the record
}

TEST(CsvRecordReaderTest, SkipsUtf8Bom) {
  auto records = Tokenize("\xEF\xBB\xBFh1,h2\nv1,v2\n", 2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].text, "h1,h2");
}

// The reader alone splits records into fields and classifies quoting
// errors.
TokenizedRecord ReadOne(const std::string& text) {
  auto records = Tokenize(text, 4);
  EXPECT_EQ(records.size(), 1u);
  return records.empty() ? TokenizedRecord() : records[0];
}

TEST(SplitCsvRecordTest, FieldsAndEscapes) {
  const TokenizedRecord rec = ReadOne("a,\"b,c\",\"d\"\"e\",,f");
  ASSERT_FALSE(rec.error.has_value());
  ASSERT_EQ(rec.raw_fields.size(), 5u);
  std::string scratch;
  EXPECT_EQ(UnquoteCsvField(rec.raw_fields[0], &scratch), "a");
  EXPECT_EQ(UnquoteCsvField(rec.raw_fields[1], &scratch), "b,c");
  EXPECT_EQ(UnquoteCsvField(rec.raw_fields[2], &scratch), "d\"e");
  EXPECT_EQ(UnquoteCsvField(rec.raw_fields[3], &scratch), "");
  EXPECT_EQ(UnquoteCsvField(rec.raw_fields[4], &scratch), "f");
}

TEST(SplitCsvRecordTest, StrayQuoteMidField) {
  const TokenizedRecord rec = ReadOne("ab\"cd");
  ASSERT_TRUE(rec.error.has_value());
  EXPECT_EQ(rec.error->kind, CsvErrorKind::kStrayQuote);
  EXPECT_EQ(rec.error->column, 3u);
}

TEST(SplitCsvRecordTest, StrayQuoteAfterClose) {
  const TokenizedRecord rec = ReadOne("\"ab\"cd");
  ASSERT_TRUE(rec.error.has_value());
  EXPECT_EQ(rec.error->kind, CsvErrorKind::kStrayQuote);
  EXPECT_EQ(rec.error->column, 5u);
}

TEST(SplitCsvRecordTest, UnterminatedQuote) {
  const TokenizedRecord rec = ReadOne("a,\"bc");
  ASSERT_TRUE(rec.error.has_value());
  EXPECT_EQ(rec.error->kind, CsvErrorKind::kUnterminatedQuote);
  EXPECT_EQ(rec.error->column, 3u);
}

// The reference the reader is checked against: the same quote rules,
// applied one byte at a time to the whole input.
std::vector<TokenizedRecord> NaiveRecords(const std::string& in, char sep) {
  enum class State { kFieldStart, kUnquoted, kQuoted, kQuoteInQuoted };
  std::vector<TokenizedRecord> out;
  size_t i = in.compare(0, 3, "\xEF\xBB\xBF") == 0 ? 3 : 0;
  size_t line = 1;
  while (i < in.size()) {
    TokenizedRecord rec;
    rec.line = line;
    State state = State::kFieldStart;
    size_t quote_open = 0;
    auto fail = [&](CsvErrorKind kind, size_t column) {
      if (!rec.error.has_value()) rec.error = CsvFieldError{kind, column};
    };
    bool terminated = false;
    while (i < in.size()) {
      const char c = in[i++];
      const size_t column = rec.text.size() + 1;
      if (state == State::kQuoted) {
        if (c == '"') state = State::kQuoteInQuoted;
        if (c == '\n') ++line;
        rec.text += c;
        continue;
      }
      if (state == State::kQuoteInQuoted) {
        if (c == '"') {
          state = State::kQuoted;
          rec.text += c;
          continue;
        }
        if (c != sep && c != '\n' && c != '\r') {
          fail(CsvErrorKind::kStrayQuote, column);
        }
        state = State::kUnquoted;
      }
      if (c == '\n' || c == '\r') {
        ++line;
        if (c == '\r' && i < in.size() && in[i] == '\n') ++i;
        terminated = true;
        break;
      }
      if (c == sep) {
        state = State::kFieldStart;
        rec.field_ends.push_back(rec.text.size());
      } else if (c == '"' && state == State::kFieldStart) {
        state = State::kQuoted;
        quote_open = column;
      } else if (c == '"') {
        fail(CsvErrorKind::kStrayQuote, column);
      } else {
        state = State::kUnquoted;
      }
      rec.text += c;
    }
    rec.field_ends.push_back(rec.text.size());
    if (!terminated && state == State::kQuoted) {
      fail(CsvErrorKind::kUnterminatedQuote, quote_open);
    }
    size_t from = 0;
    for (size_t end : rec.field_ends) {
      rec.raw_fields.push_back(rec.text.substr(from, end - from));
      from = end + 1;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

TEST(CsvRecordReaderTest, MatchesNaiveMachineOnRandomStreams) {
  // Random streams over the bytes that matter to the machine, read with
  // chunk sizes from 1 B to 64 KiB and batch sizes from 1 to 4096; some
  // calls keep the previous batch (the buffer must grow, not move).
  static const char kBytes[] = {'a', ',', '"', '\n', '\r'};
  static const int64_t kMaxLen[] = {12, 40, 400};
  Rng rng(20261018);
  size_t records = 0;
  size_t with_error = 0;
  size_t stream = 0;
  for (; records < 200000; ++stream) {
    std::string text = rng.Bernoulli(0.05) ? "\xEF\xBB\xBF" : "";
    const int64_t len = rng.UniformInt(0, kMaxLen[rng.UniformInt(0, 2)]);
    for (int64_t k = 0; k < len; ++k) text += kBytes[rng.UniformInt(0, 4)];
    const auto chunk_bytes = static_cast<size_t>(
        rng.UniformInt(1, int64_t{1} << rng.UniformInt(0, 16)));
    const auto batch_records = static_cast<size_t>(
        rng.UniformInt(1, int64_t{1} << rng.UniformInt(0, 12)));
    const bool keep_some = rng.Bernoulli(0.3);
    const std::vector<TokenizedRecord> want = NaiveRecords(text, ',');

    std::istringstream is(text);
    CsvRecordReader reader(&is, ',', chunk_bytes);
    CsvRecordBatch batch;
    size_t r = 0;
    for (;;) {
      if (!keep_some || rng.Bernoulli(0.5)) batch.Clear();
      const size_t first = batch.size();
      const size_t got = reader.NextBatch(batch_records, &batch);
      ASSERT_LE(got, batch_records);
      ASSERT_EQ(batch.size(), first + got);
      if (got == 0) break;
      // Every record the batch holds is still readable, the kept ones too.
      for (size_t k = 0; k < batch.size(); ++k) {
        const size_t at = r + k - first;
        ASSERT_LT(at, want.size()) << "stream " << stream;
        const TokenizedRecord& w = want[at];
        ASSERT_EQ(batch.text(k), w.text) << "stream " << stream;
        ASSERT_EQ(batch.line[k], w.line) << "stream " << stream;
        ASSERT_EQ(batch.num_fields(k), w.field_ends.size());
        for (size_t f = 0; f < w.field_ends.size(); ++f) {
          ASSERT_EQ(batch.field_ends[batch.first_end[k] + f] - batch.begin[k],
                    w.field_ends[f])
              << "stream " << stream;
          ASSERT_EQ(batch.RawField(k, f), w.raw_fields[f]);
        }
        ASSERT_EQ(batch.error[k].has_value(), w.error.has_value())
            << "stream " << stream;
        if (w.error.has_value()) {
          EXPECT_EQ(batch.error[k]->kind, w.error->kind);
          EXPECT_EQ(batch.error[k]->column, w.error->column);
        }
      }
      for (size_t k = first; k < batch.size(); ++k) {
        with_error += batch.error[k].has_value() ? 1 : 0;
      }
      r += got;
    }
    ASSERT_EQ(r, want.size()) << "stream " << stream;
    EXPECT_EQ(reader.bytes_read(), text.size());
    records += r;
  }
  // The streams reach every outcome.
  EXPECT_GT(with_error, records / 20);
  EXPECT_LT(with_error, records / 2);
}

// --- round trips ------------------------------------------------------------

TEST(CsvRoundTripTest, NastyValuesSurviveStreamRoundTrip) {
  const Schema s = NastySchema();
  const Table t = NastyTable(s);
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesIdentical(t, *back);
}

TEST(CsvRoundTripTest, NastyValuesSurviveFileRoundTrip) {
  const Schema s = NastySchema();
  const Table t = NastyTable(s);
  const std::string path = testing::TempDir() + "/dq_csv_nasty.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(s, path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesIdentical(t, *back);
}

TEST(CsvRoundTripTest, TinyChunksDoNotChangeTheResult) {
  const Schema s = NastySchema();
  const Table t = NastyTable(s);
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());
  CsvOptions opts;
  opts.chunk_bytes = 1;
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesIdentical(t, *back);
}

// Property test: random tables of random schemas survive a write/read round
// trip bitwise, for several separators and header settings.
TEST(CsvRoundTripTest, RandomTablePropertyFuzz) {
  const std::vector<std::string> category_pool = {
      "plain",   "a,b",       "x;y",     "with \"quote\"", "nl\nin",
      "cr\rin",  "crlf\r\nx", "sep,\"q", "end\"",          " lead",
      "trail ",  "\"",        "\n",      "?not-null",      "0",
  };
  Rng rng(20260806);
  for (int iter = 0; iter < 60; ++iter) {
    Schema s;
    const int num_attrs = static_cast<int>(rng.UniformInt(1, 4));
    for (int a = 0; a < num_attrs; ++a) {
      const std::string name = "attr" + std::to_string(a);
      const int64_t type = rng.UniformInt(0, 2);
      if (type == 0) {
        std::vector<std::string> cats;
        const size_t n_cats =
            static_cast<size_t>(rng.UniformInt(1, 6));
        for (size_t c = 0; c < category_pool.size() && cats.size() < n_cats;
             ++c) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(category_pool.size()) - 1));
          const std::string& cat = category_pool[pick];
          bool dup = false;
          for (const std::string& have : cats) dup = dup || have == cat;
          if (!dup) cats.push_back(cat);
        }
        ASSERT_TRUE(s.AddNominal(name, cats).ok());
      } else if (type == 1) {
        ASSERT_TRUE(s.AddNumeric(name, -1e6, 1e6).ok());
      } else {
        ASSERT_TRUE(s.AddDate(name, 0, 20000).ok());
      }
    }
    Table t(s);
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 25));
    for (size_t r = 0; r < rows; ++r) {
      Row row(static_cast<size_t>(num_attrs));
      for (int a = 0; a < num_attrs; ++a) {
        const AttributeDef& def = s.attribute(static_cast<size_t>(a));
        if (rng.Bernoulli(0.15)) {
          row[static_cast<size_t>(a)] = Value::Null();
        } else if (def.type == DataType::kNominal) {
          row[static_cast<size_t>(a)] = Value::Nominal(static_cast<int32_t>(
              rng.UniformInt(0,
                             static_cast<int64_t>(def.categories.size()) - 1)));
        } else if (def.type == DataType::kNumeric) {
          // Arbitrary doubles — FormatDoubleRoundTrip must preserve them.
          row[static_cast<size_t>(a)] =
              Value::Numeric(rng.UniformReal(-1e6, 1e6));
        } else {
          row[static_cast<size_t>(a)] =
              Value::Date(static_cast<int32_t>(rng.UniformInt(0, 20000)));
        }
      }
      ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
    }
    CsvOptions opts;
    opts.separator = rng.Bernoulli(0.5) ? ',' : ';';
    opts.write_header = rng.Bernoulli(0.7);
    opts.expect_header = opts.write_header;
    opts.chunk_bytes = static_cast<size_t>(rng.UniformInt(1, 64));
    std::ostringstream os;
    ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
    std::istringstream is(os.str());
    auto back = ReadCsv(s, &is, opts);
    ASSERT_TRUE(back.ok()) << "iter " << iter << ": " << back.status();
    ExpectTablesIdentical(t, *back);
  }
}

// --- header and blank-line semantics ----------------------------------------

TEST(CsvHeaderTest, ExpectHeaderIsIndependentOfWriteHeader) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("name", {"a", "b"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(1)}).ok());
  CsvOptions opts;
  opts.write_header = true;
  opts.expect_header = false;  // header row is then read as data
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  EXPECT_FALSE(back.ok());  // "name" is not a category
  EXPECT_NE(back.status().message().find("bad-value"), std::string::npos);
}

TEST(CsvHeaderTest, HeaderlessRoundTrip) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("name", {"a", "b"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(1)}).ok());
  CsvOptions opts;
  opts.write_header = false;
  opts.expect_header = false;
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesIdentical(t, *back);
}

TEST(CsvRoundTripTest, ValueSpelledLikeNullTokenIsRefused) {
  // A category named like the null token would read back as null.
  Schema s;
  ASSERT_TRUE(s.AddNominal("answer", {"yes", "?"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Nominal(1)}).ok());
  const std::string path = ::testing::TempDir() + "/csv_null_token.csv";
  std::remove(path.c_str());
  const Status written = WriteCsvFile(t, path);
  EXPECT_TRUE(written.IsInvalidArgument()) << written;
  EXPECT_NE(written.message().find("'answer', row 1"), std::string::npos)
      << written;
  EXPECT_FALSE(std::ifstream(path).good());  // no file left behind

  // So would a numeric cell whose text is a custom null token.
  Schema n;
  ASSERT_TRUE(n.AddNumeric("x", -1.0, 1.0).ok());
  Table zero(n);
  ASSERT_TRUE(zero.AppendRow({Value::Numeric(0.0)}).ok());
  CsvOptions opts;
  opts.null_token = "0";
  std::ostringstream os;
  EXPECT_TRUE(WriteCsv(zero, &os, opts).IsInvalidArgument());
}

TEST(CsvHeaderTest, HeaderErrorsAreFatalEvenWhenLenient) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("name", {"a"}).ok());
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  std::istringstream is("WRONG\na\n");
  IngestReport report;
  auto r = ReadCsv(s, &is, opts, &report);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].kind, CsvErrorKind::kBadHeader);
}

TEST(CsvBlankLineTest, SingleAttributeEmptyLineIsARecord) {
  // With an empty null token, a null cell of a one-attribute table writes
  // as a blank line; the reader must hand it back as a record instead of
  // skipping it.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", 0.0, 10.0).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Numeric(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Numeric(2.0)}).ok());
  CsvOptions opts;
  opts.null_token = "";
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os, opts).ok());
  std::istringstream is(os.str());
  auto back = ReadCsv(s, &is, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectTablesIdentical(t, *back);
}

TEST(CsvBlankLineTest, TrailingBlankLinesAreSkipped) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("a", {"x"}).ok());
  ASSERT_TRUE(s.AddNominal("b", {"y"}).ok());
  std::istringstream is("a,b\nx,y\n\n\n");
  auto back = ReadCsv(s, &is);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 1u);
}

TEST(CsvBlankLineTest, InteriorBlankLineIsAnError) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("a", {"x"}).ok());
  ASSERT_TRUE(s.AddNominal("b", {"y"}).ok());
  {
    std::istringstream is("a,b\nx,y\n\nx,y\n");
    auto back = ReadCsv(s, &is);
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().message().find("line 3"), std::string::npos);
  }
  {
    std::istringstream is("a,b\nx,y\n\nx,y\n");
    CsvOptions opts;
    opts.on_error = CsvErrorPolicy::kSkipAndReport;
    IngestReport report;
    auto back = ReadCsv(s, &is, opts, &report);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->num_rows(), 2u);
    EXPECT_EQ(report.CountOf(CsvErrorKind::kArityMismatch), 1u);
  }
}

// --- strict vs lenient error handling ---------------------------------------

Schema ErrorSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("color", {"red", "green"}).ok());
  EXPECT_TRUE(s.AddNumeric("weight", 0.0, 100.0).ok());
  return s;
}

TEST(CsvIngestTest, StrictModeFailsOnFirstError) {
  const Schema s = ErrorSchema();
  std::istringstream is("color,weight\nred,1\npurple,2\nred,3\n");
  auto r = ReadCsv(s, &is);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(r.status().message().find("bad-value"), std::string::npos);
}

TEST(CsvIngestTest, LenientModeQuarantinesAndContinues) {
  const Schema s = ErrorSchema();
  std::istringstream is(
      "color,weight\n"
      "red,1\n"
      "red,1,extra\n"      // arity
      "gre\"en,2\n"        // stray quote
      "red,200\n"          // out of domain
      "green,nan-ish\n"    // unparsable numeric
      "green,3\n");
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  IngestReport report;
  auto back = ReadCsv(s, &is, opts, &report);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(report.records_total, 6u);
  EXPECT_EQ(report.records_kept, 2u);
  EXPECT_EQ(report.records_quarantined, 4u);
  EXPECT_EQ(report.CountOf(CsvErrorKind::kArityMismatch), 1u);
  EXPECT_EQ(report.CountOf(CsvErrorKind::kStrayQuote), 1u);
  EXPECT_EQ(report.CountOf(CsvErrorKind::kBadValue), 2u);
  ASSERT_EQ(report.errors.size(), 4u);
  EXPECT_EQ(report.errors[0].line, 3u);
  EXPECT_EQ(report.errors[1].line, 4u);
  EXPECT_EQ(report.errors[2].line, 5u);
  EXPECT_EQ(report.errors[3].line, 6u);
  EXPECT_EQ(report.errors[0].raw, "red,1,extra");
}

TEST(CsvIngestTest, UnterminatedQuoteQuarantinesToEndOfInput) {
  const Schema s = ErrorSchema();
  // The opening quote makes every later newline potentially quoted content,
  // so the parser cannot resynchronize: the rest of the input is one
  // quarantined record (documented in docs/FORMATS.md).
  std::istringstream is("color,weight\nred,1\ngreen,\"2\nred,3\n");
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  IngestReport report;
  auto back = ReadCsv(s, &is, opts, &report);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_rows(), 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].kind, CsvErrorKind::kUnterminatedQuote);
  EXPECT_EQ(report.errors[0].line, 3u);
}

TEST(CsvIngestTest, ArityErrorInReusedSlotReportsColumnZero) {
  // Decode slots are reused across batches: an arity error must not keep
  // the column a quote error left in the same slot of an earlier batch.
  const Schema s = ErrorSchema();
  std::istringstream is(
      "color,weight\n"
      "gre\"en,1\n"    // batch 1, slot 0: stray quote at column 4
      "red,1\n"
      "red,1,extra\n"  // batch 2, slot 0: arity
      "red,2\n");
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  opts.batch_records = 2;
  IngestReport report;
  ASSERT_TRUE(ReadCsv(s, &is, opts, &report).ok());
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[0].kind, CsvErrorKind::kStrayQuote);
  EXPECT_EQ(report.errors[0].column, 4u);
  EXPECT_EQ(report.errors[1].kind, CsvErrorKind::kArityMismatch);
  EXPECT_EQ(report.errors[1].column, 0u);
}

TEST(CsvIngestTest, ReportCountersFilledOnCleanRead) {
  const Schema s = ErrorSchema();
  std::istringstream is("color,weight\nred,1\ngreen,2\n");
  IngestReport report;
  auto back = ReadCsv(s, &is, CsvOptions(), &report);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(report.records_total, 2u);
  EXPECT_EQ(report.records_kept, 2u);
  EXPECT_FALSE(report.HasErrors());
  EXPECT_EQ(report.bytes_read, is.str().size());
}

TEST(CsvIngestTest, LongRawTextIsTruncated) {
  const Schema s = ErrorSchema();
  std::string long_field(3 * IngestReport::kMaxRawBytes, 'z');
  std::istringstream is("color,weight\n" + long_field + ",1,extra\n");
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  IngestReport report;
  ASSERT_TRUE(ReadCsv(s, &is, opts, &report).ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_LE(report.errors[0].raw.size(), IngestReport::kMaxRawBytes + 3);
}

// --- hostile input ----------------------------------------------------------

struct ReadOutcome {
  Status status;
  Table table;
  IngestReport report;
};

ReadOutcome ReadAt(const Schema& schema, const std::string& text,
                   CsvOptions options, int threads) {
  options.num_threads = threads;
  std::istringstream in(text);
  ReadOutcome out;
  auto table = ReadCsv(schema, &in, options, &out.report);
  out.status = table.status();
  if (table.ok()) out.table = std::move(*table);
  return out;
}

void ExpectReportsEqual(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.records_total, b.records_total);
  EXPECT_EQ(a.records_kept, b.records_kept);
  EXPECT_EQ(a.records_quarantined, b.records_quarantined);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].line, b.errors[i].line);
    EXPECT_EQ(a.errors[i].column, b.errors[i].column);
    EXPECT_EQ(a.errors[i].kind, b.errors[i].kind);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
    EXPECT_EQ(a.errors[i].raw, b.errors[i].raw);
  }
}

TEST(CsvIngestTest, MutatedCsvLoadsTheSameAtEveryThreadCount) {
  // Every mutant of a polluted QUIS extract either fails on its header or
  // loads into a valid table whose kept and quarantined records add up,
  // and the read is the same at one, two and four threads.
  QuisConfig qcfg;
  qcfg.num_records = 300;
  qcfg.seed = 21;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  auto polluted =
      PollutionPipeline(DefaultPolluterMix(), 21).Apply(sample->table);
  ASSERT_TRUE(polluted.ok());
  const Schema& schema = polluted->dirty.schema();
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(polluted->dirty, &os).ok());
  const std::string csv = os.str();
  const std::vector<std::string_view> tokens = {
      "\"",         "\"\"",        "\"a,\nb\"",  "?",      "",
      "\r",         "\r\n",        "\n\n",       "\xEF\xBB\xBF",
      "2003-6-1",   " 2003-06-01", "2003-02-29", "1989-12-31",
      " 5000 ",     "+5000",       "0x1388",     "nan",    "inf",
      "1e999",      "BERLIN",      "BERLINX",    "A1\"",   "901,902"};
  Rng rng(2003);
  size_t loaded = 0;
  size_t quarantined = 0;
  for (int c = 0; c < 20000; ++c) {
    std::string text = csv;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) {
      Mutate(&rng, &text, tokens, ",\n");
    }
    CsvOptions options;
    options.on_error = CsvErrorPolicy::kSkipAndReport;
    options.batch_records = static_cast<size_t>(rng.UniformInt(1, 64));
    options.chunk_bytes = static_cast<size_t>(rng.UniformInt(1, 512));
    const ReadOutcome one = ReadAt(schema, text, options, 1);
    const ReadOutcome two = ReadAt(schema, text, options, 2);
    const ReadOutcome four = ReadAt(schema, text, options, 4);
    ASSERT_EQ(one.status.ok(), two.status.ok()) << "case " << c;
    ASSERT_EQ(one.status.ok(), four.status.ok()) << "case " << c;
    ExpectReportsEqual(one.report, two.report);
    ExpectReportsEqual(one.report, four.report);
    if (!one.status.ok()) {
      ASSERT_FALSE(one.report.errors.empty()) << "case " << c;
      EXPECT_EQ(one.report.errors.back().kind, CsvErrorKind::kBadHeader)
          << "case " << c << ": " << one.status;
      EXPECT_EQ(one.status.message(), two.status.message());
      EXPECT_EQ(one.status.message(), four.status.message());
      continue;
    }
    ++loaded;
    quarantined += one.report.records_quarantined;
    ASSERT_TRUE(one.table.Validate().ok()) << "case " << c;
    EXPECT_EQ(one.report.records_kept + one.report.records_quarantined,
              one.report.records_total)
        << "case " << c;
    ASSERT_EQ(one.table.num_rows(), one.report.records_kept);
    ExpectTablesIdentical(one.table, two.table);
    ExpectTablesIdentical(one.table, four.table);
  }
  // The mutations reach every outcome: failed headers, clean loads and
  // quarantined records.
  EXPECT_GT(loaded, 1000u);
  EXPECT_LT(loaded, 20000u);
  EXPECT_GT(quarantined, 1000u);
}

// --- stops: a failing stream or sink ----------------------------------------

/// Serves `text` up to byte `fail_at`, then throws, like a streambuf over
/// a device or connection that breaks partway through.
class BreakingBuf : public std::streambuf {
 public:
  BreakingBuf(std::string text, size_t fail_at)
      : text_(std::move(text)), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    if (served_ >= fail_at_) throw std::runtime_error("device gone");
    const size_t n = std::min<size_t>(1000, fail_at_ - served_);
    char* at = text_.data() + served_;
    setg(at, at, at + n);
    served_ += n;
    return traits_type::to_int_type(*at);
  }

 private:
  std::string text_;
  size_t fail_at_;
  size_t served_ = 0;
};

/// Appends the kept rows it is handed; fails on call `fail_on` (0: never).
class CollectingSink : public CsvChunkSink {
 public:
  CollectingSink(const Schema& schema, size_t fail_on)
      : table(schema), fail_on_(fail_on) {}

  Status OnChunk(const Table& chunk,
                 const std::vector<uint8_t>& keep) override {
    if (++calls == fail_on_) return Status::IOError("sink full");
    table.Append(chunk, &keep);
    return Status::OK();
  }

  Table table;
  size_t calls = 0;

 private:
  size_t fail_on_;
};

TEST(CsvIngestTest, StreamFailureIsAnIOErrorInRecordOrder) {
  // A stream that breaks halfway through a 20k-row QUIS extract fails the
  // read with an IOError once the complete records before the break are
  // delivered, under both policies and at every thread count; it does not
  // end the input early. A bad record ahead of the break comes first.
  QuisConfig qcfg;
  qcfg.num_records = 20000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  const Table& table = sample->table;
  const Schema& schema = table.schema();
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(table, &os).ok());
  const std::string clean = os.str();
  // The 100th record (line 101) gets a field too many.
  std::string spoiled = clean;
  size_t line_101 = 0;
  for (int l = 0; l < 100; ++l) line_101 = spoiled.find('\n', line_101) + 1;
  spoiled.insert(spoiled.find('\n', line_101), ",extra");

  for (const bool spoil : {false, true}) {
    const std::string& text = spoil ? spoiled : clean;
    for (const CsvErrorPolicy policy :
         {CsvErrorPolicy::kFail, CsvErrorPolicy::kSkipAndReport}) {
      const bool record_first = spoil && policy == CsvErrorPolicy::kFail;
      std::optional<CollectingSink> first;
      IngestReport first_report;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << "spoil " << spoil << " policy "
                                        << static_cast<int>(policy)
                                        << " threads " << threads);
        CsvOptions options;
        options.on_error = policy;
        options.num_threads = threads;
        BreakingBuf buf(text, text.size() / 2);
        std::istream in(&buf);
        CollectingSink sink(schema, 0);
        IngestReport report;
        const Status status = ReadCsvChunks(schema, &in, options, &sink,
                                            &report);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), StatusCode::kIOError);
        EXPECT_NE(status.message().find(record_first ? "arity-mismatch"
                                                     : "input stream failed"),
                  std::string::npos)
            << status;
        if (!record_first) {
          // Every complete record before the break, and no other.
          const size_t dropped = spoil ? 1 : 0;
          EXPECT_GT(sink.table.num_rows(), 9000u);
          EXPECT_EQ(report.records_total, sink.table.num_rows() + dropped);
          EXPECT_LE(report.bytes_read, text.size() / 2);
          EXPECT_EQ(text[report.bytes_read - 1], '\n');
          for (size_t r = 0; r < sink.table.num_rows(); ++r) {
            const size_t source = spoil && r >= 99 ? r + 1 : r;
            for (size_t a = 0; a < schema.num_attributes(); ++a) {
              ASSERT_TRUE(
                  sink.table.cell(r, a).StrictEquals(table.cell(source, a)))
                  << "row " << r;
            }
          }
          // ReadCsv fails alike instead of returning the rows so far.
          BreakingBuf again(text, text.size() / 2);
          std::istream in_again(&again);
          EXPECT_FALSE(ReadCsv(schema, &in_again, options).ok());
        }
        if (threads == 1) {
          first.emplace(std::move(sink));
          first_report = report;
          continue;
        }
        ExpectReportsEqual(first_report, report);
        ExpectTablesIdentical(first->table, sink.table);
      }
    }
  }
}

TEST(CsvParallelTest, SinkErrorStopsTheReadAtItsChunk) {
  // The sink fails on its third chunk of 16 records, when the read-ahead
  // has filled the ring: every thread count returns the sink's status
  // after exactly three calls, with the same report.
  const Schema s = ErrorSchema();
  std::string csv = "color,weight\n";
  for (int r = 0; r < 2000; ++r) csv += r % 3 == 0 ? "green,2\n" : "red,1\n";
  IngestReport first;
  for (int threads : {1, 2, 4}) {
    CsvOptions opts;
    opts.num_threads = threads;
    opts.batch_records = 16;
    std::istringstream in(csv);
    CollectingSink sink(s, 3);
    IngestReport report;
    const Status status = ReadCsvChunks(s, &in, opts, &sink, &report);
    EXPECT_EQ(status.ToString(), Status::IOError("sink full").ToString())
        << "threads " << threads;
    EXPECT_EQ(sink.calls, 3u) << "threads " << threads;
    EXPECT_EQ(sink.table.num_rows(), 32u) << "threads " << threads;
    EXPECT_EQ(report.records_total, 48u) << "threads " << threads;
    if (threads == 1) {
      first = report;
    } else {
      ExpectReportsEqual(first, report);
    }
  }
}

TEST(CsvIngestTest, DictionaryFindsEveryCategoryAndNothingElse) {
  // Spellings longer than 8 bytes, spellings sharing their first 8 bytes,
  // spellings that differ only in length, and an 1100-category attribute.
  std::vector<std::string> tricky = {
      "a",          "ab",          "abcdefgh",   "abcdefghi",
      "abcdefghij", "abcdefgh12",  "abcdefgh13", "abcdefgh123456789",
      "abcdefgh123456780", std::string("x\0y", 3), std::string("x\0z", 3),
      std::string("x\0", 2),
      "plant KASSEL", "plant KASSELL"};
  std::vector<std::string> wide;
  for (int i = 0; i < 1100; ++i) wide.push_back("category-" + std::to_string(i));
  Schema s;
  ASSERT_TRUE(s.AddNominal("tricky", tricky).ok());
  ASSERT_TRUE(s.AddNominal("wide", wide).ok());
  for (size_t a = 0; a < 2; ++a) {
    const std::vector<std::string>& cats = a == 0 ? tricky : wide;
    const CategoryDictionary& dict = s.attribute(a).dictionary;
    for (size_t code = 0; code < cats.size(); ++code) {
      const std::string& cat = cats[code];
      EXPECT_EQ(dict.Find(cat), static_cast<int32_t>(code)) << cat;
      std::string padded = cat + std::string(8, '!');
      EXPECT_EQ(dict.FindPadded(std::string_view(padded).substr(0, cat.size())),
                static_cast<int32_t>(code))
          << cat;
      auto code_of = s.CategoryCode(static_cast<int>(a), cat);
      ASSERT_TRUE(code_of.ok());
      EXPECT_EQ(*code_of, static_cast<int32_t>(code));
      for (const std::string& other :
           {cat + "x", cat.substr(0, cat.size() - 1), "X" + cat.substr(1),
            cat.substr(0, cat.size() - 1) + "#"}) {
        if (std::find(cats.begin(), cats.end(), other) != cats.end()) {
          continue;
        }
        EXPECT_EQ(dict.Find(other), -1) << other;
        padded = other + std::string(8, '\0');
        EXPECT_EQ(
            dict.FindPadded(std::string_view(padded).substr(0, other.size())),
            -1)
            << other;
      }
    }
  }
  // The same spellings read through a CSV, the last field ending at the
  // input's last byte (no terminator), so the decoder's 8-byte loads reach
  // the end of the batch's byte storage.
  Table t(s);
  for (size_t r = 0; r < 1100; ++r) {
    ASSERT_TRUE(t.AppendRow({Value::Nominal(static_cast<int32_t>(
                                 r % tricky.size())),
                             Value::Nominal(static_cast<int32_t>(
                                 (r * 7) % wide.size()))})
                    .ok());
  }
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());
  std::string text = os.str();
  text.pop_back();  // drop the final newline
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{1} << 16}) {
    CsvOptions options;
    options.chunk_bytes = chunk;
    std::istringstream in(text);
    auto back = ReadCsv(s, &in, options);
    ASSERT_TRUE(back.ok()) << back.status();
    ExpectTablesIdentical(t, *back);
  }
  // A field at the last byte that is a category's prefix.
  std::istringstream in("tricky,wide\nabcdefgh12,category-1\nab,category-10");
  auto back = ReadCsv(s, &in);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->code_at(1, 0), 1);
  EXPECT_EQ(back->code_at(1, 1), 10);
}

TEST(CsvIngestTest, DatesDecodeExactlyAsParseDate) {
  // Every day of 1900-2100 plus spellings the fixed-width path refuses:
  // each cell is what ParseDate gives, or its error message.
  Schema s;
  ASSERT_TRUE(s.AddNominal("k", {"x"}).ok());
  ASSERT_TRUE(s.AddDate("d", DaysFromCivil({1900, 1, 1}),
                        DaysFromCivil({2100, 12, 31}))
                  .ok());
  std::vector<std::string> spellings;
  for (int32_t day = DaysFromCivil({1900, 1, 1});
       day <= DaysFromCivil({2100, 12, 31}); ++day) {
    spellings.push_back(FormatDate(day));
  }
  for (const char* odd : {"2003-02-29", "2003-13-01", "2003-6-1",
                          " 2003-06-01", "2003-06-01 ", "2003-00-10",
                          "2004-02-29", "1899-12-31", "2101-01-01",
                          "20030601", "2003/06/01", "+2003-06-01",
                          "2003-06-1x", "0000-01-01"}) {
    spellings.push_back(odd);
  }
  std::string text = "k,d\n";
  for (const std::string& spelling : spellings) text += "x," + spelling + "\n";
  CsvOptions options;
  options.on_error = CsvErrorPolicy::kSkipAndReport;
  std::istringstream in(text);
  IngestReport report;
  auto back = ReadCsv(s, &in, options, &report);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(report.records_total, spellings.size());
  size_t row = 0;
  size_t error = 0;
  for (size_t i = 0; i < spellings.size(); ++i) {
    const auto parsed = ParseDate(spellings[i]);
    const bool in_domain = parsed.ok() && *parsed >= s.attribute(1).date_min &&
                           *parsed <= s.attribute(1).date_max;
    if (in_domain) {
      ASSERT_LT(row, back->num_rows());
      EXPECT_EQ(back->code_at(row, 1), *parsed) << spellings[i];
      ++row;
      continue;
    }
    ASSERT_LT(error, report.errors.size());
    const IngestError& e = report.errors[error++];
    EXPECT_EQ(e.line, i + 2);
    const std::string message =
        parsed.ok() ? "value '" + spellings[i] +
                          "' outside the attribute's domain"
                    : parsed.status().message();
    EXPECT_EQ(e.message, "attribute 'd': " + message) << spellings[i];
  }
  EXPECT_EQ(row, back->num_rows());
  EXPECT_EQ(error, report.errors.size());
  EXPECT_GT(row, 73000u);
  EXPECT_GE(error, 9u);
}

// --- IngestReport rendering -------------------------------------------------

TEST(IngestReportTest, SummaryAndJson) {
  const Schema s = ErrorSchema();
  std::istringstream is(
      "color,weight\nred,1\nred,1,extra\nxx\"y,2\ngreen,2\n");
  CsvOptions opts;
  opts.on_error = CsvErrorPolicy::kSkipAndReport;
  IngestReport report;
  ASSERT_TRUE(ReadCsv(s, &is, opts, &report).ok());
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("quarantined 2 of 4 records"), std::string::npos);
  EXPECT_NE(summary.find("stray-quote 1"), std::string::npos);
  EXPECT_NE(summary.find("arity-mismatch 1"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"records_quarantined\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"arity-mismatch\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stray-quote\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"raw\": \"red,1,extra\""), std::string::npos);
  const std::string text = report.RenderText();
  EXPECT_NE(text.find("line 3: arity-mismatch"), std::string::npos);
}

TEST(IngestReportTest, JsonEscapesControlCharacters) {
  IngestReport report;
  IngestError err;
  err.line = 1;
  err.kind = CsvErrorKind::kStrayQuote;
  err.message = "quote \"here\"";
  err.raw = "a\nb\tc\\d";
  report.errors.push_back(err);
  report.records_quarantined = 1;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("quote \\\"here\\\""), std::string::npos);
  EXPECT_NE(json.find("a\\nb\\tc\\\\d"), std::string::npos);
}

// --- parallel determinism ---------------------------------------------------

TEST(CsvParallelTest, ParallelParseIsDeterministic) {
  const Schema s = NastySchema();
  Table t(s);
  Rng rng(7);
  for (int r = 0; r < 3000; ++r) {
    ASSERT_TRUE(
        t.AppendRow({Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 6))),
                     Value::Numeric(rng.UniformReal(-1000.0, 1000.0)),
                     Value::Date(static_cast<int32_t>(
                         rng.UniformInt(DaysFromCivil({1995, 1, 1}),
                                        DaysFromCivil({2010, 12, 31}))))})
            .ok());
  }
  std::ostringstream os;
  ASSERT_TRUE(WriteCsv(t, &os).ok());
  const std::string csv = os.str();
  for (int threads : {1, 2, 4}) {
    CsvOptions opts;
    opts.num_threads = threads;
    opts.batch_records = 256;  // force many batches
    opts.chunk_bytes = 512;
    std::istringstream is(csv);
    IngestReport report;
    auto back = ReadCsv(s, &is, opts, &report);
    ASSERT_TRUE(back.ok()) << "threads " << threads << ": " << back.status();
    ExpectTablesIdentical(t, *back);
    EXPECT_EQ(report.records_kept, 3000u);
  }
}

TEST(CsvParallelTest, ParallelQuarantineIsDeterministic) {
  const Schema s = ErrorSchema();
  Rng rng(11);
  std::string csv = "color,weight\n";
  std::vector<size_t> bad_lines;
  for (size_t r = 0; r < 2000; ++r) {
    const size_t line = r + 2;
    switch (rng.UniformInt(0, 9)) {
      case 0:
        csv += "red,1,extra\n";
        bad_lines.push_back(line);
        break;
      case 1:
        csv += "re\"d,1\n";
        bad_lines.push_back(line);
        break;
      case 2:
        csv += "red,9000\n";
        bad_lines.push_back(line);
        break;
      default:
        csv += rng.Bernoulli(0.5) ? "red,1\n" : "green,2\n";
    }
  }
  std::vector<IngestError> baseline;
  for (int threads : {1, 2, 3, 4}) {
    CsvOptions opts;
    opts.num_threads = threads;
    opts.batch_records = 128;
    opts.on_error = CsvErrorPolicy::kSkipAndReport;
    std::istringstream is(csv);
    IngestReport report;
    auto back = ReadCsv(s, &is, opts, &report);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(report.errors.size(), bad_lines.size());
    for (size_t i = 0; i < report.errors.size(); ++i) {
      EXPECT_EQ(report.errors[i].line, bad_lines[i]) << "threads " << threads;
    }
    if (threads == 1) {
      baseline = report.errors;
      continue;
    }
    ASSERT_EQ(report.errors.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(report.errors[i].kind, baseline[i].kind);
      EXPECT_EQ(report.errors[i].column, baseline[i].column);
      EXPECT_EQ(report.errors[i].message, baseline[i].message);
      EXPECT_EQ(report.errors[i].raw, baseline[i].raw);
    }
  }
}

TEST(CsvParallelTest, StrictModeFirstErrorIsDeterministic) {
  const Schema s = ErrorSchema();
  std::string csv = "color,weight\n";
  for (int r = 0; r < 500; ++r) csv += "red,1\n";
  csv += "purple,1\n";  // line 502
  for (int r = 0; r < 500; ++r) csv += "green,2\n";
  csv += "blue,1\n";  // line 1003, never reached in order
  for (int threads : {1, 2, 4}) {
    CsvOptions opts;
    opts.num_threads = threads;
    opts.batch_records = 64;
    std::istringstream is(csv);
    auto r = ReadCsv(s, &is, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("line 502"), std::string::npos)
        << "threads " << threads << ": " << r.status().message();
  }
}

}  // namespace
}  // namespace dq
