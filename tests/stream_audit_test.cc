// Streaming audit end-to-end properties: chunked QUIS generation is
// bitwise identical to one-shot, and the out-of-core audit reproduces the
// classic in-memory ranking exactly — with and without spilling.

#include "audit/stream_audit.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "eval/report_io.h"
#include "gtest/gtest.h"
#include "quis/quis_sample.h"
#include "report_rows.h"
#include "table/columnar.h"
#include "table/csv.h"

namespace dq {
namespace {

QuisConfig SmallQuis() {
  QuisConfig config;
  config.num_records = 2500;
  config.seed = 17;
  return config;
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

TEST(QuisStreamGeneratorTest, ChunkedGenerationMatchesOneShot) {
  const QuisConfig config = SmallQuis();
  auto one_shot = GenerateQuisSample(config);
  ASSERT_TRUE(one_shot.ok());

  auto gen = QuisStreamGenerator::Create(config);
  ASSERT_TRUE(gen.ok());
  Table assembled(gen->schema());
  Table chunk;
  size_t chunks = 0;
  while (!gen->done()) {
    // 97 does not divide 2500, so the last chunk is a partial one.
    ASSERT_TRUE(gen->NextChunk(97, &chunk).ok());
    assembled.Append(chunk);
    ++chunks;
  }
  EXPECT_GT(chunks, 20u);
  EXPECT_EQ(gen->records_generated(), config.num_records);
  ExpectTablesEqual(one_shot->table, assembled);

  // Planted-dependency bookkeeping survives chunking unchanged.
  EXPECT_EQ(gen->planted_deviation_row(), one_shot->planted_deviation_row);
  EXPECT_EQ(gen->brv404_count(), one_shot->brv404_count);
  EXPECT_EQ(gen->kbm01_gbm901_count(), one_shot->kbm01_gbm901_count);
  EXPECT_EQ(gen->kbm01_gbm901_brv501_count(),
            one_shot->kbm01_gbm901_brv501_count);
}

/// A temp path unique to the running test: ctest -j runs the cases of
/// this suite as parallel processes, which must not share files.
std::string TestTempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

class StreamAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = GenerateQuisSample(SmallQuis());
    ASSERT_TRUE(sample.ok());
    table_ = std::move(sample->table);
    csv_path_ = TestTempPath("stream_audit_quis") + ".csv";
    ASSERT_TRUE(WriteCsvFile(table_, csv_path_).ok());
  }

  StreamAuditOptions FullSampleOptions() const {
    StreamAuditOptions options;
    options.sample_rows = table_.num_rows() * 2;  // sample == full table
    options.store.segment_rows = 300;
    return options;
  }

  Table table_{Schema()};
  std::string csv_path_;
};

TEST_F(StreamAuditTest, StreamingEqualsClassicWhenSampleCoversTable) {
  const StreamAuditOptions options = FullSampleOptions();
  Auditor auditor(options.auditor);
  auto model = auditor.Induce(table_);
  ASSERT_TRUE(model.ok());
  auto classic = auditor.Audit(*model, table_);
  ASSERT_TRUE(classic.ok());
  ASSERT_GT(classic->suspicious.size(), 0u);

  auto streamed = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->total_rows, table_.num_rows());
  EXPECT_EQ(streamed->sampled_rows, table_.num_rows());
  ExpectSameSuspicions(classic->suspicious, streamed->suspicious);

  // And the two report writers emit identical bytes for identical input.
  std::ostringstream classic_csv;
  ASSERT_TRUE(WriteAuditReportCsv(*classic, table_, &classic_csv).ok());
  std::ostringstream stream_csv;
  ASSERT_TRUE(WriteStreamAuditReportCsv(streamed->suspicious, table_.schema(),
                                        &stream_csv)
                  .ok());
  EXPECT_EQ(classic_csv.str(), stream_csv.str());
}

TEST_F(StreamAuditTest, ReportIsInvariantUnderMemoryBudget) {
  StreamAuditOptions unbudgeted = FullSampleOptions();
  auto wide = RunStreamingAudit(table_.schema(), csv_path_, unbudgeted);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->store_stats.spill_writes, 0u);

  StreamAuditOptions budgeted = FullSampleOptions();
  budgeted.store.memory_budget_bytes = 8 * 1024;  // forces spilling
  budgeted.store.spill_dir = TestTempPath("stream_audit_spill");
  auto tight = RunStreamingAudit(table_.schema(), csv_path_, budgeted);
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(tight->store_stats.spill_writes, 0u);
  EXPECT_GT(tight->store_stats.spill_reads, 0u);

  ExpectSameSuspicions(wide->suspicious, tight->suspicious);
  // The spill directory is removed once the store is gone.
  EXPECT_FALSE(std::filesystem::exists(budgeted.store.spill_dir));
}

TEST_F(StreamAuditTest, FailedFirstSpillLeavesNoSpillDirectory) {
  // A spill directory path just short of PATH_MAX (4096): creating it
  // succeeds, but its spill file's path is too long to open, so the first
  // spill write fails. The audit fails with that IOError and leaves
  // neither the file nor the directory the store created.
  const std::string root = TestTempPath("spill_too_long");
  std::string dir = root;
  while (dir.size() + 256 < 4085) dir += "/" + std::string(200, 'd');
  dir += "/" + std::string(4085 - dir.size() - 1, 's');
  ASSERT_EQ(dir.size(), 4085u);
  std::filesystem::create_directories(std::filesystem::path(dir).parent_path());
  for (int threads : {1, 2}) {
    StreamAuditOptions options = FullSampleOptions();
    options.auditor.num_threads = threads;
    options.csv.num_threads = threads;
    options.store.memory_budget_bytes = 8 * 1024;
    options.store.spill_dir = dir;
    auto result = RunStreamingAudit(table_.schema(), csv_path_, options);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError)
        << result.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(dir)) << "threads " << threads;
  }
  std::filesystem::remove_all(root);
}

TEST_F(StreamAuditTest, SubSampledModelStillRanksDeterministically) {
  StreamAuditOptions options = FullSampleOptions();
  options.sample_rows = 800;  // genuine subsample
  auto first = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->sampled_rows, 800u);
  auto second = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(second.ok());
  ExpectSameSuspicions(first->suspicious, second->suspicious);
  // Ranking is confidence-descending with row-ascending tie-breaks.
  for (size_t i = 1; i < first->suspicious.size(); ++i) {
    const Suspicion& prev = first->suspicious[i - 1];
    const Suspicion& cur = first->suspicious[i];
    EXPECT_TRUE(prev.error_confidence > cur.error_confidence ||
                (prev.error_confidence == cur.error_confidence &&
                 prev.row < cur.row))
        << "rank " << i;
  }
}

TEST_F(StreamAuditTest, SegmentParallelRankingIsThreadCountInvariant) {
  // Every segment is scored across all threads and the merge walks the
  // segments in order, so the ranking must be the serial one bit for bit.
  StreamAuditOptions serial = FullSampleOptions();
  serial.auditor.num_threads = 1;
  auto one = RunStreamingAudit(table_.schema(), csv_path_, serial);
  ASSERT_TRUE(one.ok());
  ASSERT_GT(one->suspicious.size(), 0u);
  for (int threads : {2, 3, 8}) {
    StreamAuditOptions parallel = FullSampleOptions();
    parallel.auditor.num_threads = threads;
    auto many = RunStreamingAudit(table_.schema(), csv_path_, parallel);
    ASSERT_TRUE(many.ok()) << "threads=" << threads;
    ExpectSameSuspicions(one->suspicious, many->suspicious);
  }
}

TEST_F(StreamAuditTest, DqcolInputReproducesCsvReport) {
  // Convert the CSV to dqcol and stream-audit both: the ingest backend
  // seam must make the report independent of the on-disk format.
  auto loaded = ReadCsvFile(table_.schema(), csv_path_);
  ASSERT_TRUE(loaded.ok());
  const std::string dqcol_path = TestTempPath("stream_audit_quis") + ".dqcol";
  ASSERT_TRUE(WriteDqcolFile(*loaded, dqcol_path).ok());

  const StreamAuditOptions csv_options = FullSampleOptions();
  auto from_csv = RunStreamingAudit(table_.schema(), csv_path_, csv_options);
  ASSERT_TRUE(from_csv.ok());

  StreamAuditOptions dqcol_options = FullSampleOptions();
  dqcol_options.format = IngestFormat::kDqcol;
  auto from_dqcol =
      RunStreamingAudit(table_.schema(), dqcol_path, dqcol_options);
  ASSERT_TRUE(from_dqcol.ok());
  EXPECT_EQ(from_dqcol->total_rows, from_csv->total_rows);
  ExpectSameSuspicions(from_csv->suspicious, from_dqcol->suspicious);

  std::ostringstream csv_report;
  ASSERT_TRUE(WriteStreamAuditReportCsv(from_csv->suspicious, table_.schema(),
                                        &csv_report)
                  .ok());
  std::ostringstream dqcol_report;
  ASSERT_TRUE(WriteStreamAuditReportCsv(from_dqcol->suspicious,
                                        table_.schema(), &dqcol_report)
                  .ok());
  EXPECT_EQ(csv_report.str(), dqcol_report.str());
}

TEST(StreamReportFileTest, FailedWriteLeavesTheOldReportInPlace) {
  Schema schema;
  ASSERT_TRUE(schema.AddNominal("X", {"x0", "x1"}).ok());
  const std::string path = ::testing::TempDir() + "/atomic_report.csv";
  const std::string old_bytes = "rank,row,error_confidence\nold report\n";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << old_bytes;
  }
  // The first suspicion renders fine; the second names no attribute of the
  // schema, so the writer fails halfway through the report.
  std::vector<Suspicion> suspicious(2);
  suspicious[0].row = 3;
  suspicious[0].error_confidence = 0.9;
  suspicious[0].attr = 0;
  suspicious[0].observed = Value::Nominal(1);
  suspicious[0].suggestion = Value::Nominal(0);
  suspicious[1].row = 4;
  suspicious[1].error_confidence = 0.85;
  suspicious[1].attr = static_cast<int>(schema.num_attributes());

  const Status written = WriteStreamAuditReportCsvFile(suspicious, schema, path);
  EXPECT_TRUE(written.IsInvalidArgument()) << written.ToString();
  std::ifstream f(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, old_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(StreamAuditTest, RejectsZeroSampleRows) {
  StreamAuditOptions options = FullSampleOptions();
  options.sample_rows = 0;
  auto result = RunStreamingAudit(table_.schema(), csv_path_, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace dq
