// SegmentStore: seal/spill/reload round-trips, budget enforcement, spill
// hygiene; ReservoirSampler: determinism, chunking-invariance, k >= n
// degeneration.

#include "table/segment_store.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mining/sample.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace dq {
namespace {

Schema TestSchema() {
  Schema schema;
  (void)schema.AddNominal("color", {"red", "green", "blue"});
  (void)schema.AddNumeric("weight", 0.0, 1000.0);
  (void)schema.AddDate("born", 0, 40000);
  return schema;
}

Row MakeRow(size_t i) {
  Row row(3);
  // Every 7th row gets a null to exercise the bitmaps through spills.
  if (i % 7 == 0) {
    row[0] = Value::Null();
  } else {
    row[0] = Value::Nominal(static_cast<int>(i % 3));
  }
  row[1] = Value::Numeric(static_cast<double>(i) * 0.5);
  row[2] = Value::Date(static_cast<int32_t>(1 + i % 39999));
  return row;
}

/// Appends rows [0, n) to a store in chunks of `chunk_rows`, and returns
/// the reference table built by plain appends.
Table FeedStore(const Schema& schema, SegmentStore* store, size_t n,
                size_t chunk_rows) {
  Table reference(schema);
  TableChunk chunk(schema);
  size_t done = 0;
  while (done < n) {
    const size_t batch = std::min(chunk_rows, n - done);
    chunk.Reset(batch);
    for (size_t i = 0; i < batch; ++i) {
      const Row row = MakeRow(done + i);
      for (size_t a = 0; a < row.size(); ++a) chunk.Set(i, a, row[a]);
      reference.AppendRowUnchecked(row);
    }
    EXPECT_TRUE(store->Append(chunk).ok());
    done += batch;
  }
  return reference;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      ASSERT_TRUE(a.cell(r, c).StrictEquals(b.cell(r, c)))
          << "row " << r << " attr " << c;
    }
  }
}

std::string UniqueSpillDir(const std::string& name) {
  return ::testing::TempDir() + "/segstore_" + name;
}

TEST(SegmentStoreTest, MaterializeEqualsDirectAppendWithoutBudget) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 64;
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 500, 37);
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_EQ(store.num_rows(), 500u);
  EXPECT_GE(store.num_segments(), 5u);
  EXPECT_EQ(store.stats().spill_writes, 0u);

  Table assembled;
  ASSERT_TRUE(store.Materialize(&assembled).ok());
  ExpectTablesEqual(reference, assembled);

  // Segments partition [0, num_rows) in order.
  size_t next = 0;
  for (size_t s = 0; s < store.num_segments(); ++s) {
    EXPECT_EQ(store.segment_base_row(s), next);
    next += store.segment_num_rows(s);
  }
  EXPECT_EQ(next, store.num_rows());
}

TEST(SegmentStoreTest, SpillRoundTripIsBitwiseIdentical) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 50;
  options.memory_budget_bytes = 4096;  // far below the data size
  options.spill_dir = UniqueSpillDir("roundtrip");
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 600, 41);
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_GT(store.stats().spill_writes, 0u);

  Table assembled;
  ASSERT_TRUE(store.Materialize(&assembled).ok());
  EXPECT_GT(store.stats().spill_reads, 0u);
  ExpectTablesEqual(reference, assembled);
}

TEST(SegmentStoreTest, BudgetedAndUnbudgetedStoresAgree) {
  const Schema schema = TestSchema();
  SegmentStoreOptions no_budget;
  no_budget.segment_rows = 48;
  SegmentStore plain(schema, no_budget);
  (void)FeedStore(schema, &plain, 700, 53);
  ASSERT_TRUE(plain.Finish().ok());

  SegmentStoreOptions budgeted = no_budget;
  budgeted.memory_budget_bytes = 2048;
  budgeted.spill_dir = UniqueSpillDir("agree");
  SegmentStore spilling(schema, budgeted);
  (void)FeedStore(schema, &spilling, 700, 53);
  ASSERT_TRUE(spilling.Finish().ok());
  EXPECT_GT(spilling.stats().spill_writes, 0u);

  // Identical segment boundaries regardless of residency...
  ASSERT_EQ(plain.num_segments(), spilling.num_segments());
  for (size_t s = 0; s < plain.num_segments(); ++s) {
    EXPECT_EQ(plain.segment_base_row(s), spilling.segment_base_row(s));
    EXPECT_EQ(plain.segment_num_rows(s), spilling.segment_num_rows(s));
  }
  // ...and identical assembled bytes.
  Table a;
  Table b;
  ASSERT_TRUE(plain.Materialize(&a).ok());
  ASSERT_TRUE(spilling.Materialize(&b).ok());
  ExpectTablesEqual(a, b);
}

TEST(SegmentStoreTest, PinReloadsAndUnpinReEvicts) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 40;
  options.memory_budget_bytes = 1;  // evict everything evictable
  options.spill_dir = UniqueSpillDir("pin");
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 200, 40);
  ASSERT_TRUE(store.Finish().ok());
  ASSERT_GE(store.num_segments(), 2u);
  EXPECT_FALSE(store.segment_resident(0));

  auto pinned = store.Pin(0);
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(store.segment_resident(0));
  EXPECT_EQ((*pinned)->num_rows(), store.segment_num_rows(0));
  ASSERT_TRUE((*pinned)->cell(0, 1).StrictEquals(reference.cell(0, 1)));
  const uint64_t writes_before = store.stats().spill_writes;
  ASSERT_TRUE(store.Unpin(0).ok());
  // Over budget again after unpin: the reloaded copy is dropped, but the
  // spill file already exists so no second write happens.
  EXPECT_FALSE(store.segment_resident(0));
  EXPECT_EQ(store.stats().spill_writes, writes_before);
}

TEST(SegmentStoreTest, SpillFilesAreRemovedOnDestruction) {
  const Schema schema = TestSchema();
  const std::string dir = UniqueSpillDir("cleanup");
  {
    SegmentStoreOptions options;
    options.segment_rows = 32;
    options.memory_budget_bytes = 1024;
    options.spill_dir = dir;
    SegmentStore store(schema, options);
    (void)FeedStore(schema, &store, 300, 32);
    ASSERT_TRUE(store.Finish().ok());
    ASSERT_GT(store.stats().spill_writes, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

/// Byte offset of attribute `attr`'s payload in a dqcol file holding `rows`
/// rows of `schema`: the column blocks (type byte, payload, null bitmap)
/// fill the tail of the file in schema order, after the header.
uint64_t PayloadOffset(const std::string& path, const Schema& schema,
                       size_t rows, size_t attr) {
  const uint64_t words = (rows + 63) / 64;
  auto block = [&](size_t a) {
    const uint64_t elem =
        schema.attribute(a).type == DataType::kNumeric ? 8 : 4;
    return 1 + rows * elem + words * 8;
  };
  uint64_t tail = 0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) tail += block(a);
  uint64_t offset = std::filesystem::file_size(path) - tail;
  for (size_t a = 0; a < attr; ++a) offset += block(a);
  return offset + 1;
}

TEST(SegmentStoreTest, CorruptSpillFilesFailToPin) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 40;
  options.memory_budget_bytes = 1;  // evict everything evictable
  options.spill_dir = UniqueSpillDir("corrupt");
  SegmentStore store(schema, options);
  (void)FeedStore(schema, &store, 200, 40);
  ASSERT_TRUE(store.Finish().ok());
  ASSERT_GE(store.num_segments(), 3u);

  // Reloading a spill is not ingest: no ingest counter moves and the
  // table.bytes gauge keeps whatever the last real ingest set.
  obs::Counter* const ingested = obs::GetCounter("ingest.records_total");
  obs::Gauge* const table_bytes = obs::GetGauge("table.bytes");
  table_bytes->Set(12345.0);
  const uint64_t before = ingested->Value();
  ASSERT_FALSE(store.segment_resident(0));
  ASSERT_TRUE(store.Pin(0).ok());
  ASSERT_TRUE(store.Unpin(0).ok());
  EXPECT_EQ(ingested->Value(), before);
  EXPECT_EQ(table_bytes->Value(), 12345.0);

  // A truncated spill file.
  const std::string truncated = options.spill_dir + "/seg-1.dqcol";
  ASSERT_TRUE(std::filesystem::exists(truncated));
  std::filesystem::resize_file(truncated,
                               std::filesystem::file_size(truncated) / 2);
  EXPECT_FALSE(store.Pin(1).ok());

  // A "color" code outside its three categories, in segment 2's second row
  // (global row 81, which MakeRow leaves non-null).
  const std::string poisoned = options.spill_dir + "/seg-2.dqcol";
  ASSERT_TRUE(std::filesystem::exists(poisoned));
  {
    std::fstream f(poisoned, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        PayloadOffset(poisoned, schema, store.segment_num_rows(2), 0) +
        sizeof(int32_t)));
    const int32_t code = 3;
    f.write(reinterpret_cast<const char*>(&code), sizeof(code));
    ASSERT_TRUE(f.good());
  }
  EXPECT_FALSE(store.Pin(2).ok());
}

TEST(ReservoirSamplerTest, SameSeedSameStreamSameSample) {
  const Schema schema = TestSchema();
  ReservoirSampler a(25, 7);
  ReservoirSampler b(25, 7);
  for (size_t i = 0; i < 400; ++i) {
    a.Offer(MakeRow(i));
    b.Offer(MakeRow(i));
  }
  ExpectTablesEqual(a.BuildSampleTable(schema), b.BuildSampleTable(schema));
  EXPECT_EQ(a.sample_size(), 25u);
  EXPECT_EQ(a.rows_seen(), 400u);
}

TEST(ReservoirSamplerTest, CapacityAtLeastStreamKeepsEveryRowInOrder) {
  const Schema schema = TestSchema();
  ReservoirSampler sampler(500, 99);
  Table reference(schema);
  for (size_t i = 0; i < 123; ++i) {
    const Row row = MakeRow(i);
    sampler.Offer(row);
    reference.AppendRowUnchecked(row);
  }
  // k >= n: the reservoir is the whole stream in original order — the
  // property that makes the streaming audit reproduce the classic path.
  ExpectTablesEqual(reference, sampler.BuildSampleTable(schema));
}

TEST(ReservoirSamplerTest, SampleRowsComeFromTheStream) {
  const Schema schema = TestSchema();
  ReservoirSampler sampler(10, 3);
  for (size_t i = 0; i < 1000; ++i) sampler.Offer(MakeRow(i));
  const Table sample = sampler.BuildSampleTable(schema);
  ASSERT_EQ(sample.num_rows(), 10u);
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    // weight = i * 0.5 identifies the source row; verify the whole row.
    const double weight = sample.cell(r, 1).numeric();
    const auto i = static_cast<size_t>(weight * 2.0);
    ASSERT_LT(i, 1000u);
    const Row expected = MakeRow(i);
    for (size_t a = 0; a < 3; ++a) {
      ASSERT_TRUE(sample.cell(r, a).StrictEquals(expected[a]));
    }
  }
}

}  // namespace
}  // namespace dq
