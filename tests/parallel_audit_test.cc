// Determinism tests for the parallel audit pipeline: every thread count
// must produce bitwise-identical models, reports and metrics, under both
// C4.5 split evaluators.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "common/random.h"
#include "eval/test_environment.h"
#include "mining/c45.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quis/quis_sample.h"
#include "report_rows.h"

namespace dq {
namespace {

Schema AuditSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", {"w0", "w1", "w2", "w3"}).ok());
  return s;
}

/// Y deterministically mirrors X; W random. Plants `errors` deviating
/// records at the front.
Table PlantedTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = AuditSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;  // deviation
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

std::string Serialized(const AuditModel& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.SerializeTo(&out).ok());
  return out.str();
}

/// Every record's Def. 8 result: checked at min_error_confidence = 0, the
/// ranked list holds each record with a nonzero confidence.
AuditReport ScoreAll(const AuditModel& model, const Table& t,
                     AuditorConfig cfg) {
  cfg.min_error_confidence = 0.0;
  auto report = model.Check(t, cfg);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(*report) : AuditReport{};
}

TEST(ParallelAuditTest, ThreadCountDoesNotChangeModelOrReport) {
  Table t = PlantedTable(3000, 5, 40);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.SetEnabled(true);

  AuditorConfig serial_cfg;
  serial_cfg.num_threads = 1;
  Auditor serial(serial_cfg);
  auto serial_model = serial.Induce(t);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status();
  auto serial_report = serial.Audit(*serial_model, t);
  ASSERT_TRUE(serial_report.ok());
  const std::string serial_tree = tracer.TreeSummary();
  tracer.Reset();

  AuditorConfig parallel_cfg;
  parallel_cfg.num_threads = 4;
  Auditor parallel(parallel_cfg);
  auto parallel_model = parallel.Induce(t);
  ASSERT_TRUE(parallel_model.ok()) << parallel_model.status();
  auto parallel_report = parallel.Audit(*parallel_model, t);
  ASSERT_TRUE(parallel_report.ok());
  const std::string parallel_tree = tracer.TreeSummary();
  tracer.SetEnabled(false);
  tracer.Reset();

  // One induce.attr span per attribute, keyed by it, directly under the
  // induce span, whatever the thread count.
  EXPECT_EQ(serial_tree, parallel_tree);
  size_t attr_spans = 0;
  for (size_t pos = 0;
       (pos = parallel_tree.find("\n  induce.attr[", pos)) != std::string::npos;
       ++pos) {
    ++attr_spans;
  }
  EXPECT_EQ(attr_spans, t.schema().num_attributes()) << parallel_tree;
  for (size_t a = 0; a < t.schema().num_attributes(); ++a) {
    EXPECT_NE(parallel_tree.find("\n  induce.attr[" + std::to_string(a) +
                                 "]\n"),
              std::string::npos)
        << parallel_tree;
  }
  EXPECT_EQ(Serialized(*serial_model), Serialized(*parallel_model));
  ExpectSameSuspicions(*serial_report, *parallel_report);
  ExpectSameSuspicions(ScoreAll(*serial_model, t, serial_cfg),
                       ScoreAll(*parallel_model, t, parallel_cfg));
}

TEST(ParallelAuditTest, WideThreadCountsAgreeWithSerial) {
  Table t = PlantedTable(3000, 5, 40);

  AuditorConfig serial_cfg;
  serial_cfg.num_threads = 1;
  Auditor serial(serial_cfg);
  auto serial_model = serial.Induce(t);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status();
  auto serial_report = serial.Audit(*serial_model, t);
  ASSERT_TRUE(serial_report.ok());

  for (int threads : {2, 8}) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    Auditor auditor(cfg);
    auto model = auditor.Induce(t);
    ASSERT_TRUE(model.ok()) << "threads=" << threads;
    auto report = auditor.Audit(*model, t);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    EXPECT_EQ(Serialized(*serial_model), Serialized(*model))
        << "threads=" << threads;
    ExpectSameSuspicions(*serial_report, *report);
    ExpectSameSuspicions(ScoreAll(*serial_model, t, serial_cfg),
                         ScoreAll(*model, t, cfg));
  }
}

TEST(ParallelAuditTest, EncodeCacheIsBuiltOncePerAudit) {
  Table t = PlantedTable(2000, 3, 42);
  obs::Counter* const builds = obs::GetCounter("audit.encode_builds");
  for (int threads : {1, 2, 8}) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    Auditor auditor(cfg);
    const uint64_t before = builds->Value();
    auto model = auditor.Induce(t);
    ASSERT_TRUE(model.ok());
    auto report = auditor.Audit(*model, t);
    ASSERT_TRUE(report.ok());
    // The whole audit — k parallel inductions plus scoring — shares ONE
    // EncodedDataset build.
    EXPECT_EQ(builds->Value() - before, 1u) << "threads=" << threads;
  }
}

TEST(ParallelAuditTest, StructureModelCheckMatchesAcrossThreadCounts) {
  Table t = PlantedTable(2500, 4, 77);
  AuditorConfig cfg;
  cfg.num_threads = 1;
  Auditor auditor(cfg);
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  std::istringstream saved(Serialized(*model));
  auto loaded = AuditModel::Deserialize(t.schema(), &saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  auto serial = loaded->Check(t, cfg);
  ASSERT_TRUE(serial.ok());
  cfg.num_threads = 4;
  auto parallel = loaded->Check(t, cfg);
  ASSERT_TRUE(parallel.ok());
  ExpectSameSuspicions(*serial, *parallel);
  cfg.num_threads = 1;
  const AuditReport serial_all = ScoreAll(*loaded, t, cfg);
  cfg.num_threads = 4;
  ExpectSameSuspicions(serial_all, ScoreAll(*loaded, t, cfg));
}

TEST(ParallelAuditTest, EvaluationMetricsMatchAcrossThreadCounts) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 2000;
  cfg.num_rules = 20;
  cfg.seed = 11;
  cfg.auditor.num_threads = 1;
  auto serial = TestEnvironment(cfg).Run();
  ASSERT_TRUE(serial.ok()) << serial.status();
  cfg.auditor.num_threads = 4;
  auto parallel = TestEnvironment(cfg).Run();
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(serial->sensitivity, parallel->sensitivity);
  EXPECT_EQ(serial->specificity, parallel->specificity);
  EXPECT_EQ(serial->correction_improvement, parallel->correction_improvement);
  EXPECT_EQ(serial->flagged, parallel->flagged);
  EXPECT_EQ(serial->detection.true_positive, parallel->detection.true_positive);
  EXPECT_EQ(serial->detection.true_negative, parallel->detection.true_negative);
}

// --- exact-mode oracle determinism -----------------------------------------

TEST(C45PresortTest, QuisAuditIsIdenticalUnderPresortAndThreads) {
  // The exact SLIQ sweep partitions the shared presorted lists; its audits
  // must not depend on the thread count that runs the k inductions.
  QuisConfig qcfg;
  qcfg.num_records = 5000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());

  auto run = [&](int threads, AuditModel* model, AuditReport* report,
                 AuditReport* all) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    cfg.c45.split_mode = SplitMode::kExact;
    Auditor auditor(cfg);
    auto induced = auditor.Induce(sample->table);
    ASSERT_TRUE(induced.ok()) << induced.status();
    auto audited = auditor.Audit(*induced, sample->table);
    ASSERT_TRUE(audited.ok()) << audited.status();
    *all = ScoreAll(*induced, sample->table, cfg);
    *model = std::move(*induced);
    *report = std::move(*audited);
  };
  AuditModel serial_model, parallel_model;
  AuditReport serial_report, parallel_report, serial_all, parallel_all;
  run(1, &serial_model, &serial_report, &serial_all);
  run(4, &parallel_model, &parallel_report, &parallel_all);

  EXPECT_GT(serial_report.NumFlagged(), 0u);
  EXPECT_EQ(Serialized(serial_model), Serialized(parallel_model));
  ExpectSameSuspicions(serial_report, parallel_report);
  ExpectSameSuspicions(serial_all, parallel_all);
}

}  // namespace
}  // namespace dq
