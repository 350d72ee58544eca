// dqcol v1 codec (table/columnar.h): randomized CSV -> Table -> dqcol ->
// Table bitwise-identity property suite, chunked-vs-whole load
// equivalence, embedded-schema reads, corrupt-file rejection and schema
// mismatch detection.

#include "table/columnar.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/table.h"

namespace dq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/columnar_" + name;
}

void ExpectTablesBitwiseEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      ASSERT_TRUE(a.cell(r, c).StrictEquals(b.cell(r, c)))
          << "row " << r << " attr " << c;
    }
  }
}

/// Collects a chunk stream back into a Table (keep-respecting), used to
/// prove the chunked dqcol read delivers exactly the whole-load rows.
class CollectSink : public CsvChunkSink {
 public:
  explicit CollectSink(const Schema& schema) : table_(schema) {}

  Status OnChunk(const TableChunk& chunk,
                 const std::vector<uint8_t>& keep) override {
    ++chunks_;
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      if (keep[i] == 0) continue;
      table_.AppendRowUnchecked(chunk.MaterializeRow(i));
    }
    return Status::OK();
  }

  const Table& table() const { return table_; }
  size_t chunks() const { return chunks_; }

 private:
  Table table_;
  size_t chunks_ = 0;
};

/// A schema that exercises every column kind plus hostile category
/// spellings (separator, quotes, embedded newline) that force the CSV
/// writer through its quoting path.
Schema MixedSchema() {
  Schema schema;
  (void)schema.AddNominal("plant", {"MANNHEIM", "GAGGENAU", "KASSEL"});
  (void)schema.AddNumeric("displacement", -1e6, 1e6);
  (void)schema.AddDate("built", 1, 60000);
  (void)schema.AddNominal("note", {"plain", "with,comma", "with\"quote",
                                   "line\nbreak", " padded "});
  (void)schema.AddNumeric("ratio", 0.0, 1.0);
  return schema;
}

/// Fills `table` with `rows` random in-domain rows; ~12% of cells null.
void FillRandom(const Schema& schema, size_t rows, uint64_t seed,
                Table* table) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Row row(schema.num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const AttributeDef& def = schema.attribute(a);
      if (unit(rng) < 0.12) {
        row[a] = Value::Null();
        continue;
      }
      switch (def.type) {
        case DataType::kNominal: {
          std::uniform_int_distribution<int32_t> cat(
              0, static_cast<int32_t>(def.categories.size()) - 1);
          row[a] = Value::Nominal(cat(rng));
          break;
        }
        case DataType::kNumeric: {
          std::uniform_real_distribution<double> num(def.numeric_min,
                                                     def.numeric_max);
          row[a] = Value::Numeric(num(rng));
          break;
        }
        case DataType::kDate: {
          std::uniform_int_distribution<int32_t> day(def.date_min,
                                                     def.date_max);
          row[a] = Value::Date(day(rng));
          break;
        }
      }
    }
    table->AppendRowUnchecked(row);
  }
}

TEST(ColumnarTest, CsvToDqcolRoundTripIsBitwiseIdentical) {
  // The property at the heart of the format: parse a CSV, snapshot it as
  // dqcol, load it back — every cell (including null sentinels and double
  // bit patterns) survives exactly.
  const Schema schema = MixedSchema();
  std::mt19937_64 seeds(2003);
  for (int iter = 0; iter < 8; ++iter) {
    Table original(schema);
    FillRandom(schema, 257 + static_cast<size_t>(iter) * 64, seeds(),
               &original);

    const std::string csv_path = TempPath("rt.csv");
    const std::string dqcol_path = TempPath("rt.dqcol");
    ASSERT_TRUE(WriteCsvFile(original, csv_path).ok());
    auto from_csv = ReadCsvFile(schema, csv_path);
    ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();

    ASSERT_TRUE(WriteDqcolFile(*from_csv, dqcol_path).ok());
    IngestReport report;
    auto from_dqcol = ReadDqcolFile(schema, dqcol_path, &report);
    ASSERT_TRUE(from_dqcol.ok()) << from_dqcol.status().ToString();
    ExpectTablesBitwiseEqual(*from_csv, *from_dqcol);
    EXPECT_EQ(report.records_total, from_csv->num_rows());
    EXPECT_EQ(report.records_kept, from_csv->num_rows());
  }
}

TEST(ColumnarTest, ChunkedReadEqualsWholeLoad) {
  const Schema schema = MixedSchema();
  Table original(schema);
  FillRandom(schema, 1000, 17, &original);
  const std::string path = TempPath("chunked.dqcol");
  ASSERT_TRUE(WriteDqcolFile(original, path).ok());

  auto whole = ReadDqcolFile(schema, path);
  ASSERT_TRUE(whole.ok());
  // Chunk sizes below, at and above the 64-row bitmap word, plus one
  // bigger than the table (single chunk).
  for (size_t chunk_rows : {1u, 63u, 64u, 65u, 127u, 4096u}) {
    CollectSink sink(schema);
    ASSERT_TRUE(
        ReadDqcolFileChunks(schema, path, chunk_rows, &sink).ok())
        << "chunk_rows=" << chunk_rows;
    ExpectTablesBitwiseEqual(*whole, sink.table());
    if (chunk_rows >= 1000) {
      EXPECT_EQ(sink.chunks(), 1u);
    }
  }
}

TEST(ColumnarTest, EmptyTableRoundTrips) {
  const Schema schema = MixedSchema();
  const Table empty(schema);
  const std::string path = TempPath("empty.dqcol");
  ASSERT_TRUE(WriteDqcolFile(empty, path).ok());
  auto back = ReadDqcolFile(schema, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  CollectSink sink(schema);
  ASSERT_TRUE(ReadDqcolFileChunks(schema, path, 64, &sink).ok());
  EXPECT_EQ(sink.table().num_rows(), 0u);
}

TEST(ColumnarTest, EmbeddedSchemaMatchesWriterSchema) {
  const Schema schema = MixedSchema();
  Table original(schema);
  FillRandom(schema, 64, 3, &original);
  const std::string path = TempPath("schema.dqcol");
  ASSERT_TRUE(WriteDqcolFile(original, path).ok());

  auto embedded = ReadDqcolSchema(path);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
  ASSERT_EQ(embedded->num_attributes(), schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttributeDef& want = schema.attribute(a);
    const AttributeDef& got = embedded->attribute(a);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.categories, want.categories);
  }
  // Loading with the embedded schema works too.
  auto back = ReadDqcolFile(*embedded, path);
  ASSERT_TRUE(back.ok());
  ExpectTablesBitwiseEqual(original, *back);
}

TEST(ColumnarTest, RejectsSchemaMismatch) {
  const Schema schema = MixedSchema();
  Table original(schema);
  FillRandom(schema, 32, 5, &original);
  const std::string path = TempPath("mismatch.dqcol");
  ASSERT_TRUE(WriteDqcolFile(original, path).ok());

  // Different category order.
  Schema reordered;
  (void)reordered.AddNominal("plant", {"GAGGENAU", "MANNHEIM", "KASSEL"});
  (void)reordered.AddNumeric("displacement", -1e6, 1e6);
  (void)reordered.AddDate("built", 1, 60000);
  (void)reordered.AddNominal("note", {"plain", "with,comma", "with\"quote",
                                      "line\nbreak", " padded "});
  (void)reordered.AddNumeric("ratio", 0.0, 1.0);
  EXPECT_FALSE(ReadDqcolFile(reordered, path).ok());

  // Different numeric domain.
  Schema narrowed;
  (void)narrowed.AddNominal("plant", {"MANNHEIM", "GAGGENAU", "KASSEL"});
  (void)narrowed.AddNumeric("displacement", 0.0, 10.0);
  (void)narrowed.AddDate("built", 1, 60000);
  (void)narrowed.AddNominal("note", {"plain", "with,comma", "with\"quote",
                                     "line\nbreak", " padded "});
  (void)narrowed.AddNumeric("ratio", 0.0, 1.0);
  EXPECT_FALSE(ReadDqcolFile(narrowed, path).ok());

  // Fewer attributes.
  Schema fewer;
  (void)fewer.AddNominal("plant", {"MANNHEIM", "GAGGENAU", "KASSEL"});
  EXPECT_FALSE(ReadDqcolFile(fewer, path).ok());
}

TEST(ColumnarTest, RejectsCorruptFiles) {
  const Schema schema = MixedSchema();
  Table original(schema);
  FillRandom(schema, 200, 9, &original);
  const std::string path = TempPath("good.dqcol");
  ASSERT_TRUE(WriteDqcolFile(original, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  auto write_variant = [&](const std::string& name,
                           const std::string& content) {
    const std::string p = TempPath(name);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();
    return p;
  };

  // Missing file.
  EXPECT_FALSE(ReadDqcolFile(schema, TempPath("nonexistent.dqcol")).ok());
  EXPECT_FALSE(ReadDqcolSchema(TempPath("nonexistent.dqcol")).ok());

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(
      ReadDqcolFile(schema, write_variant("badmagic.dqcol", bad_magic)).ok());

  // Flipped endian tag (bytes 8..11 hold the 0x01020304 marker).
  std::string bad_endian = bytes;
  std::swap(bad_endian[8], bad_endian[11]);
  std::swap(bad_endian[9], bad_endian[10]);
  EXPECT_FALSE(
      ReadDqcolFile(schema, write_variant("endian.dqcol", bad_endian)).ok());

  // Truncations at every region: header, schema block, payload, bitmap.
  for (size_t cut :
       {size_t{4}, size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    const std::string p =
        write_variant("trunc.dqcol", bytes.substr(0, cut));
    EXPECT_FALSE(ReadDqcolFile(schema, p).ok()) << "cut=" << cut;
    CollectSink sink(schema);
    EXPECT_FALSE(ReadDqcolFileChunks(schema, p, 64, &sink).ok())
        << "cut=" << cut;
  }

  // A category code past the domain must be caught by the post-load
  // column check, not stored silently. The first nominal payload starts
  // right after the header+schema; corrupt a byte deep in the payload
  // region instead of guessing offsets: flip bytes until the reader
  // objects while the magic/schema stay intact. (Bounded scan keeps the
  // test deterministic.)
  bool rejected = false;
  for (size_t off = bytes.size() - 9; off > bytes.size() / 2; --off) {
    std::string corrupted = bytes;
    corrupted[off] = static_cast<char>(0xff);
    if (corrupted == bytes) continue;
    if (!ReadDqcolFile(schema, write_variant("flip.dqcol", corrupted)).ok()) {
      rejected = true;
      break;
    }
  }
  EXPECT_TRUE(rejected)
      << "no payload/bitmap corruption was detected by the column checks";
}

TEST(ColumnarTest, IngestBackendDispatchAgreesWithDirectCalls) {
  const Schema schema = MixedSchema();
  Table original(schema);
  FillRandom(schema, 128, 21, &original);
  const std::string path = TempPath("dispatch.dqcol");
  ASSERT_TRUE(
      WriteTableFile(original, IngestFormat::kDqcol, path, CsvOptions())
          .ok());
  auto via_seam = ReadTableFile(IngestFormat::kDqcol, schema, path,
                                CsvOptions());
  ASSERT_TRUE(via_seam.ok());
  ExpectTablesBitwiseEqual(original, *via_seam);

  EXPECT_EQ(InferIngestFormat(path), IngestFormat::kDqcol);
  EXPECT_EQ(InferIngestFormat("table.csv"), IngestFormat::kCsv);
  EXPECT_EQ(InferIngestFormat("noext"), IngestFormat::kCsv);
  auto parsed = IngestFormatFromName("dqcol");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, IngestFormat::kDqcol);
  EXPECT_FALSE(IngestFormatFromName("parquet").ok());
  EXPECT_STREQ(IngestFormatToString(IngestFormat::kDqcol), "dqcol");
}

}  // namespace
}  // namespace dq
