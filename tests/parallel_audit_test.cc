// Determinism tests for the parallel audit pipeline: every thread count
// must produce bitwise-identical models, reports and metrics, under both
// C4.5 split evaluators.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "audit/structure_model.h"
#include "common/random.h"
#include "eval/test_environment.h"
#include "mining/c45.h"
#include "obs/metrics.h"
#include "quis/quis_sample.h"

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

std::string Serialized(const AuditModel& model, const Schema& schema) {
  StructureModel sm = StructureModel::FromAuditModel(model, schema);
  std::ostringstream out;
  EXPECT_TRUE(sm.SerializeTo(&out).ok());
  return out.str();
}

void ExpectIdenticalReports(const AuditReport& a, const AuditReport& b) {
  ASSERT_EQ(a.record_confidence.size(), b.record_confidence.size());
  for (size_t r = 0; r < a.record_confidence.size(); ++r) {
    EXPECT_EQ(a.record_confidence[r], b.record_confidence[r]) << "row " << r;
    EXPECT_EQ(a.record_attr[r], b.record_attr[r]) << "row " << r;
    EXPECT_EQ(a.record_support[r], b.record_support[r]) << "row " << r;
    EXPECT_TRUE(a.record_suggestion[r].StrictEquals(b.record_suggestion[r]))
        << "row " << r;
    EXPECT_EQ(a.IsFlagged(r), b.IsFlagged(r)) << "row " << r;
  }
  ASSERT_EQ(a.suspicious.size(), b.suspicious.size());
  for (size_t i = 0; i < a.suspicious.size(); ++i) {
    EXPECT_EQ(a.suspicious[i].row, b.suspicious[i].row) << "rank " << i;
    EXPECT_EQ(a.suspicious[i].error_confidence,
              b.suspicious[i].error_confidence)
        << "rank " << i;
    EXPECT_EQ(a.suspicious[i].attr, b.suspicious[i].attr) << "rank " << i;
  }
}

TEST(ParallelAuditTest, ThreadCountDoesNotChangeModelOrReport) {
  Table t = PlantedTable(3000, 5, 40);

  AuditorConfig serial_cfg;
  serial_cfg.num_threads = 1;
  Auditor serial(serial_cfg);
  auto serial_model = serial.Induce(t);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status();
  auto serial_report = serial.Audit(*serial_model, t);
  ASSERT_TRUE(serial_report.ok());

  AuditorConfig parallel_cfg;
  parallel_cfg.num_threads = 4;
  Auditor parallel(parallel_cfg);
  AuditTimings timings;
  auto parallel_model = parallel.Induce(t, &timings);
  ASSERT_TRUE(parallel_model.ok()) << parallel_model.status();
  auto parallel_report = parallel.Audit(*parallel_model, t, &timings);
  ASSERT_TRUE(parallel_report.ok());

  EXPECT_EQ(timings.threads_used, 4);
  EXPECT_EQ(timings.induce_attr_ms.size(), t.schema().num_attributes());
  EXPECT_EQ(Serialized(*serial_model, t.schema()),
            Serialized(*parallel_model, t.schema()));
  ExpectIdenticalReports(*serial_report, *parallel_report);
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
    EXPECT_EQ(Serialized(*serial_model, t.schema()),
              Serialized(*model, t.schema()))
        << "threads=" << threads;
    ExpectIdenticalReports(*serial_report, *report);
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
  StructureModel sm = StructureModel::FromAuditModel(*model, t.schema());

  auto serial = sm.Check(t, cfg);
  ASSERT_TRUE(serial.ok());
  cfg.num_threads = 4;
  auto parallel = sm.Check(t, cfg);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalReports(*serial, *parallel);
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

  auto run = [&](int threads, AuditModel* model, AuditReport* report) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    cfg.c45.split_mode = SplitMode::kExact;
    Auditor auditor(cfg);
    auto induced = auditor.Induce(sample->table);
    ASSERT_TRUE(induced.ok()) << induced.status();
    auto audited = auditor.Audit(*induced, sample->table);
    ASSERT_TRUE(audited.ok()) << audited.status();
    *model = std::move(*induced);
    *report = std::move(*audited);
  };
  AuditModel serial_model, parallel_model;
  AuditReport serial_report, parallel_report;
  run(1, &serial_model, &serial_report);
  run(4, &parallel_model, &parallel_report);

  EXPECT_GT(serial_report.NumFlagged(), 0u);
  EXPECT_EQ(Serialized(serial_model, sample->table.schema()),
            Serialized(parallel_model, sample->table.schema()));
  ExpectIdenticalReports(serial_report, parallel_report);
}

}  // namespace
}  // namespace dq
