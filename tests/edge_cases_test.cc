// Edge-case and failure-injection tests across modules: degenerate
// configurations, conflicting rule overlaps, all-null attributes, empty
// tables, and C4.5 corner behaviours.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>

#include "audit/auditor.h"
#include "common/atomic_file.h"
#include "eval/metrics.h"
#include "eval/test_environment.h"
#include "lint/lint.h"
#include "logic/domain_range.h"
#include "logic/rule_parser.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "obs/bench_report.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/rule_diff.h"
#include "obs/trace.h"
#include "pollution/pipeline.h"
#include "table/columnar.h"
#include "table/csv.h"
#include "table/schema_spec.h"
#include "tdg/data_generator.h"

namespace dq {
namespace {

Schema ThreeNominal() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"a0", "a1", "a2"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"b0", "b1", "b2"}).ok());
  EXPECT_TRUE(s.AddNominal("C", {"c0", "c1", "c2"}).ok());
  return s;
}

// --- Generator robustness under conflicting rule overlaps ---------------------

TEST(GeneratorEdgeTest, ConflictingOverlapProducesUnresolvedRecordsOnly) {
  // Definition 6 is a pairwise check that only fires when one premise
  // implies the other, so these two rules form a natural rule set although
  // their premises overlap with contradictory consequents. Records in the
  // overlap can never satisfy both; the generator must resample, and when
  // the retry budget runs out, append the record and count it as
  // unresolved rather than loop forever.
  Schema s = ThreeNominal();
  Rule r1{Formula::MakeAtom(Atom::Prop(0, AtomOp::kEq, Value::Nominal(0))),
          Formula::MakeAtom(Atom::Prop(2, AtomOp::kEq, Value::Nominal(0)))};
  Rule r2{Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Nominal(0))),
          Formula::MakeAtom(Atom::Prop(2, AtomOp::kEq, Value::Nominal(1)))};
  std::vector<DistributionSpec> specs(3, DistributionSpec::Uniform());
  DataGenerator gen(&s, specs, nullptr, {r1, r2});
  DataGenConfig cfg;
  cfg.num_records = 600;
  cfg.max_record_attempts = 3;  // force the fallback path to trigger
  cfg.seed = 12;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->table.num_rows(), 600u);
  // Every record that still violates a rule is accounted as unresolved.
  size_t violating = 0;
  for (size_t r = 0; r < data->table.num_rows(); ++r) {
    const Row row = data->table.row(r);
    if (r1.Violates(row) || r2.Violates(row)) ++violating;
  }
  EXPECT_EQ(violating, data->unresolved_records);
  // Resampling dodges most overlaps, so unresolved stays a small minority.
  EXPECT_LT(data->unresolved_records, 60u);
}

TEST(GeneratorEdgeTest, ZeroRecordsIsValid) {
  Schema s = ThreeNominal();
  std::vector<DistributionSpec> specs(3, DistributionSpec::Uniform());
  DataGenerator gen(&s, specs, nullptr, {});
  DataGenConfig cfg;
  cfg.num_records = 0;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->table.num_rows(), 0u);
}

// --- Auditor degenerate inputs ---------------------------------------------------

TEST(AuditorEdgeTest, AllNullAttributeIsSkippedNotFatal) {
  Schema s = ThreeNominal();
  Table t(s);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const int32_t a = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(3);
    row[0] = Value::Nominal(a);
    row[1] = Value::Nominal(a);
    row[2] = Value::Null();  // C is never observed
    t.AppendRowUnchecked(std::move(row));
  }
  Auditor auditor;
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok()) << model.status();
  // A and B get models; C cannot be trained (no class values).
  EXPECT_EQ(model->ModelFor(2), nullptr);
  EXPECT_NE(model->ModelFor(0), nullptr);
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
}

TEST(AuditorEdgeTest, SingleAttributeSchemaCannotBeAudited) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("only", {"a", "b"}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0)}).ok());
  Auditor auditor;
  EXPECT_FALSE(auditor.Induce(t).ok());
}

TEST(AuditorEdgeTest, AuditReportSizesMatchInput) {
  Schema s = ThreeNominal();
  Table train(s);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    Row row(3);
    for (size_t a = 0; a < 3; ++a) {
      row[a] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    }
    train.AppendRowUnchecked(std::move(row));
  }
  Auditor auditor;
  auto model = auditor.Induce(train);
  ASSERT_TRUE(model.ok());
  Table empty(s);
  auto report = auditor.Audit(*model, empty);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->flagged.empty());
  EXPECT_EQ(report->NumFlagged(), 0u);
}

TEST(AuditorEdgeTest, CorrectionsRejectMismatchedReport) {
  Schema s = ThreeNominal();
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(0),
                           Value::Nominal(0)})
                  .ok());
  AuditReport wrong_size;  // empty report vs 1-row table
  Auditor auditor;
  EXPECT_FALSE(auditor.ApplyCorrections(wrong_size, t).ok());
}

/// A two-row table of ThreeNominal and a report flagging row 0 with one
/// suspicion whose fields the corrections tests break one at a time.
struct CorrectionCase {
  Table table{ThreeNominal()};
  AuditReport report;

  CorrectionCase() {
    EXPECT_TRUE(table
                    .AppendRow({Value::Nominal(0), Value::Nominal(1),
                                Value::Nominal(2)})
                    .ok());
    EXPECT_TRUE(table
                    .AppendRow({Value::Nominal(2), Value::Nominal(1),
                                Value::Nominal(0)})
                    .ok());
    Suspicion s;
    s.row = 0;
    s.attr = 1;
    s.error_confidence = 0.9;
    s.observed = Value::Nominal(1);
    s.suggestion = Value::Nominal(2);
    report.suspicious = {s};
    report.flagged = {true, false};
  }

  /// Applies the report and expects InvalidArgument with `table` as it was.
  void ExpectRejected() {
    const Table before = table;
    auto corrected = Auditor().ApplyCorrections(report, table);
    ASSERT_FALSE(corrected.ok());
    EXPECT_TRUE(corrected.status().IsInvalidArgument()) << corrected.status();
    for (size_t r = 0; r < before.num_rows(); ++r) {
      for (size_t a = 0; a < before.num_attributes(); ++a) {
        EXPECT_TRUE(table.cell(r, a).StrictEquals(before.cell(r, a)))
            << "row " << r << " attr " << a;
      }
    }
  }
};

TEST(AuditorEdgeTest, CorrectionsApplyAWellFormedReport) {
  CorrectionCase c;
  auto corrected = Auditor().ApplyCorrections(c.report, c.table);
  ASSERT_TRUE(corrected.ok()) << corrected.status();
  EXPECT_EQ(corrected->cell(0, 1).nominal_code(), 2);
  EXPECT_EQ(c.table.cell(0, 1).nominal_code(), 1);
}

TEST(AuditorEdgeTest, CorrectionsRejectRowPastTheTable) {
  CorrectionCase c;
  c.report.suspicious[0].row = 2;
  c.ExpectRejected();
}

TEST(AuditorEdgeTest, CorrectionsRejectNegativeAttribute) {
  CorrectionCase c;
  c.report.suspicious[0].attr = -1;
  c.ExpectRejected();
}

TEST(AuditorEdgeTest, CorrectionsRejectAttributePastTheSchema) {
  CorrectionCase c;
  c.report.suspicious[0].attr = 3;
  c.ExpectRejected();
}

TEST(AuditorEdgeTest, CorrectionsRejectSuggestionOfAnotherKind) {
  CorrectionCase c;
  c.report.suspicious[0].suggestion = Value::Numeric(2.0);
  c.ExpectRejected();
}

// --- Pollution degenerate inputs ------------------------------------------------

TEST(PollutionEdgeTest, EmptyTable) {
  Schema s = ThreeNominal();
  Table t(s);
  PollutionPipeline pipeline(DefaultPolluterMix(), 1);
  auto result = pipeline.Apply(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dirty.num_rows(), 0u);
  EXPECT_EQ(result->CorruptedCount(), 0u);
}

TEST(PollutionEdgeTest, SingletonDomainCannotBeWrongValued) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("K", {"only"}).ok());
  ASSERT_TRUE(s.AddNominal("L", {"x", "y"}).ok());
  Table t(s);
  for (int i = 0; i < 200; ++i) {
    t.AppendRowUnchecked({Value::Nominal(0), Value::Nominal(i % 2)});
  }
  PolluterConfig wrong = PolluterConfig::WrongValue(1.0);
  wrong.target_attrs = {0};  // singleton domain: no different value exists
  PollutionPipeline pipeline({wrong}, 2);
  auto result = pipeline.Apply(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CorruptedCount(), 0u);
}

// --- Correction matrix with duplicates -------------------------------------------

TEST(MetricsEdgeTest, DuplicatesCompareAgainstTheirOrigin) {
  Schema s = ThreeNominal();
  Table clean(s);
  ASSERT_TRUE(clean.AppendRow({Value::Nominal(0), Value::Nominal(1),
                               Value::Nominal(2)})
                  .ok());
  PollutionResult pollution;
  pollution.dirty = clean;
  // Append a duplicate of row 0.
  pollution.dirty.AppendRowUnchecked(clean.row(0));
  pollution.origin = {0, 0};
  pollution.is_corrupted = {false, true};
  EXPECT_TRUE(RowMatchesClean(clean, pollution, pollution.dirty, 1));
  AuditReport report;
  report.flagged = {false, false};
  DetectionMatrix m = EvaluateDetection(pollution, report);
  EXPECT_EQ(m.false_negative, 1u);  // the unflagged duplicate
  EXPECT_EQ(m.true_negative, 1u);
}

// --- C4.5 corner behaviours -------------------------------------------------------

Schema MiningSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

Table DoubleThresholdTable(size_t rows, uint64_t seed) {
  // Class depends on Z being inside (30, 70]: requires TWO numeric splits
  // on the same attribute along one path.
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double z = rng.UniformReal(0, 100);
    Row row(3);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Numeric(z);
    row[2] = Value::Nominal(z > 30.0 && z <= 70.0 ? 1 : 0);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(C45EdgeTest, NumericAttributeReusedAlongOnePath) {
  Table t = DoubleThresholdTable(2000, 40);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Tree tree;
  ASSERT_TRUE(tree.Train(td).ok());
  // The band is only expressible with two thresholds on Z.
  Row in_band(3), below(3), above(3);
  in_band[1] = Value::Numeric(50.0);
  below[1] = Value::Numeric(10.0);
  above[1] = Value::Numeric(90.0);
  EXPECT_EQ(tree.Predict(in_band).PredictedClass(), 1);
  EXPECT_EQ(tree.Predict(below).PredictedClass(), 0);
  EXPECT_EQ(tree.Predict(above).PredictedClass(), 0);
  EXPECT_GE(tree.TreeDepth(), 3u);
}

TEST(C45EdgeTest, MaxDepthOneYieldsSingleLeaf) {
  Table t = DoubleThresholdTable(500, 41);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Config cfg;
  cfg.max_depth = 0;
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(td).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
}

TEST(C45EdgeTest, LargeMinSplitWeightBlocksSplits) {
  Table t = DoubleThresholdTable(200, 42);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Config cfg;
  cfg.min_split_weight = 1000.0;  // > table size
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(td).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
}

TEST(C45EdgeTest, Id3ModeAlsoLearns) {
  Table t = DoubleThresholdTable(1500, 43);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Config cfg;
  cfg.use_gain_ratio = false;  // plain information gain (ID3)
  C45Tree tree(cfg);
  ASSERT_TRUE(tree.Train(td).ok());
  Row in_band(3);
  in_band[1] = Value::Numeric(50.0);
  EXPECT_EQ(tree.Predict(in_band).PredictedClass(), 1);
}

TEST(C45EdgeTest, SupportEqualsLeafWeightOnCompletePaths) {
  // With all path attributes known, the prediction's support is exactly
  // the training weight that reached the leaf; summed over a partition of
  // probe points it never exceeds the training size.
  Table t = DoubleThresholdTable(1000, 44);
  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  const TrainingData td{&enc, 2, {0, 1}};
  C45Tree tree;
  ASSERT_TRUE(tree.Train(td).ok());
  Row probe(3);
  probe[0] = Value::Nominal(0);
  probe[1] = Value::Numeric(50.0);
  const Prediction p = tree.Predict(probe);
  EXPECT_GT(p.support, 0.0);
  EXPECT_LE(p.support, 1000.0);
}

// --- TestEnvironment accounting ----------------------------------------------------

TEST(TestEnvironmentEdgeTest, TimingsArePopulated) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 400;
  cfg.num_rules = 5;
  cfg.seed = 21;
  auto result = TestEnvironment(cfg).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->generate_ms, 0.0);
  EXPECT_GE(result->induce_ms, 0.0);
  EXPECT_GE(result->audit_ms, 0.0);
  EXPECT_EQ(result->rules.size(), 5u);
}

// --- Misc string renderings ---------------------------------------------------------

TEST(RenderingTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeToString(DataType::kNominal), "nominal");
  EXPECT_STREQ(DataTypeToString(DataType::kNumeric), "numeric");
  EXPECT_STREQ(DataTypeToString(DataType::kDate), "date");
}

TEST(RenderingTest, DomainRangeToString) {
  Schema s = MiningSchema();
  DomainRange nom = DomainRange::FullDomain(s.attribute(0));
  nom.RestrictNeq(Value::Nominal(0));
  EXPECT_NE(nom.ToString(s.attribute(0)).find("x1"), std::string::npos);
  DomainRange num = DomainRange::FullDomain(s.attribute(1));
  num.RestrictGt(Value::Numeric(10));
  num.ForbidNull();
  const std::string text = num.ToString(s.attribute(1));
  EXPECT_NE(text.find("("), std::string::npos);
  EXPECT_EQ(text.find("or null"), std::string::npos);
}

TEST(RenderingTest, StatusStreamOperator) {
  std::ostringstream os;
  os << Status::NotFound("thing");
  EXPECT_EQ(os.str(), "NotFound: thing");
}

// --- A directory named where an input file belongs --------------------------

/// Takes every chunk a streaming reader decodes.
class DiscardSink : public CsvChunkSink {
 public:
  Status OnChunk(const Table&, const std::vector<uint8_t>&) override {
    return Status::OK();
  }
};

TEST(InputFileTest, DirectoryIsAnIOErrorForEveryReader) {
  // std::ifstream opens a directory and reads it as empty; every reader of
  // a user-named input must refuse it with an IOError naming the path.
  const std::string dir =
      ::testing::TempDir() + "/dq_input_dir_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a0", "a1"}).ok());
  DiscardSink sink;
  const std::vector<std::pair<std::string, std::function<Status()>>> readers = {
      {"schema spec", [&] { return ParseSchemaSpecFile(dir).status(); }},
      {"csv", [&] { return ReadCsvFile(s, dir).status(); }},
      {"csv chunks",
       [&] { return ReadCsvFileChunks(s, dir, CsvOptions(), &sink); }},
      {"dqcol schema", [&] { return ReadDqcolSchema(dir).status(); }},
      {"dqcol", [&] { return ReadDqcolFile(s, dir).status(); }},
      {"dqcol reload", [&] { return LoadDqcolFile(s, dir).status(); }},
      {"dqcol chunks",
       [&] { return ReadDqcolFileChunks(s, dir, 64, &sink); }},
      {"rule file", [&] { return ParseRuleFileAt(s, dir).status(); }},
      {"lenient rule file",
       [&] { return ParseRuleFileLenientAt(s, dir).status(); }},
      {"lint", [&] { return Linter(&s).LintFileAt(dir).status(); }},
      {"annotated rule file",
       [&] { return obs::LoadAnnotatedRuleFile(dir).status(); }},
      {"model", [&] { return AuditModel::LoadFromFile(s, dir).status(); }},
      {"manifest hash",
       [&] {
         obs::RunManifest manifest;
         return obs::AddInputFileHash(&manifest, "input", dir);
       }},
  };
  for (const auto& [reader, read] : readers) {
    const Status status = read();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << reader << ": " << status;
    EXPECT_NE(status.message().find(dir), std::string::npos)
        << reader << ": " << status;
  }
  std::filesystem::remove_all(dir);
}

// --- An output file that hits a file size limit -----------------------------

/// Runs `write` in a forked child whose working directory is `dir` and,
/// when `limit_bytes` > 0, whose soft RLIMIT_FSIZE is `limit_bytes`, with
/// SIGXFSZ ignored so that an oversized write fails with EFBIG instead of
/// killing the child. Returns the child's exit code: 0 when `write`
/// returned OK, 1 when it returned an error, 2 when the set-up failed.
int WriteInChild(const std::string& dir, rlim_t limit_bytes,
                 const std::function<Status()>& write) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    bool ready = chdir(dir.c_str()) == 0 &&
                 getrlimit(RLIMIT_FSIZE, &limit) == 0;
    if (ready && limit_bytes > 0) {
      limit.rlim_cur = limit_bytes;
      ready = setrlimit(RLIMIT_FSIZE, &limit) == 0;
    }
    _exit(!ready ? 2 : write().ok() ? 0 : 1);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

std::string FileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(OutputFileTest, WriteCutShortFailsAndKeepsThePreviousFile) {
  // A write cut short (a full disk, a file size limit) must fail with a
  // Status and leave the file it would replace as it was: every writer of
  // a file a reader opens goes through WriteFileAtomically.
  const std::string dir =
      ::testing::TempDir() + "/dq_fsize_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"a0", "a1"}).ok());
  ASSERT_TRUE(s.AddNumeric("x", 0.0, 1e6).ok());
  Table table(s);
  for (int r = 0; r < 100; ++r) {
    table.AppendRowUnchecked({Value::Nominal(r % 2), Value::Numeric(r)});
  }
  obs::Tracer::Global().SetEnabled(true);
  { obs::Span span("output_file_test"); }
  obs::GetCounter("output_file_test.writes")->Add(1);
  IngestReport ingest;
  ingest.records_total = 100;
  ingest.records_kept = 100;

  struct Writer {
    std::string name;
    std::string path;
    std::function<Status()> write;
  };
  const std::vector<Writer> writers = {
      {"atomic file", dir + "/atomic.txt",
       [&] {
         return WriteFileAtomically(dir + "/atomic.txt", std::string(256, 'x'));
       }},
      {"csv", dir + "/table.csv",
       [&] { return WriteCsvFile(table, dir + "/table.csv"); }},
      {"dqcol", dir + "/table.dqcol",
       [&] { return WriteDqcolFile(table, dir + "/table.dqcol"); }},
      {"trace", dir + "/trace.json",
       [&] {
         return obs::Tracer::Global().WriteChromeTraceFile(dir + "/trace.json");
       }},
      {"metrics", dir + "/metrics.json",
       [&] {
         return obs::MetricsRegistry::Global().WriteJsonFile(dir +
                                                             "/metrics.json");
       }},
      {"ingest report", dir + "/ingest.json",
       [&] { return ingest.WriteJsonFile(dir + "/ingest.json"); }},
      {"bench report", dir + "/BENCH_output_file_test.json",
       [] {
         obs::BenchReport report("output_file_test");
         report.Add("note", std::string(128, 'x'));
         return report.WriteFile() ? Status::OK()
                                   : Status::IOError("not written");
       }},
  };
  const std::string previous = "the previous file\n";
  for (const Writer& w : writers) {
    { std::ofstream(w.path, std::ios::binary) << previous; }
    EXPECT_EQ(WriteInChild(dir, 64, w.write), 1)
        << w.name << ": the write past the limit did not fail";
    EXPECT_EQ(FileText(w.path), previous) << w.name;
    EXPECT_FALSE(std::filesystem::exists(w.path + ".tmp")) << w.name;
    // Without the limit the same writer replaces that very file.
    EXPECT_EQ(WriteInChild(dir, 0, w.write), 0) << w.name;
    EXPECT_GT(FileText(w.path).size(), 64u) << w.name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dq
