// Tests for the persisted structure model (sec. 2.2 asynchrony, sec. 5.4
// rule export) and the interactive review module (sec. 5.3). A persisted
// model loads as the AuditModel it was saved from, so everything an induced
// model does, a loaded one must do alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>

#include "audit/review.h"
#include "audit/rule_export.h"
#include "common/random.h"
#include "eval/report_io.h"
#include "mutate.h"
#include "pollution/pipeline.h"
#include "quis/quis_sample.h"
#include "report_rows.h"

namespace dq {
namespace {

Schema ModelSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  return s;
}

/// Y mirrors X; Z depends on X (x * 30 + noise); plants `errors` deviations
/// in Y at the front.
Table ModelTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = ModelSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Numeric(30.0 * x + rng.UniformReal(0.0, 10.0));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

struct Fixture {
  Table table;
  AuditorConfig config;
  Auditor auditor;
  AuditModel model;

  explicit Fixture(size_t rows = 3000, size_t errors = 4, uint64_t seed = 60)
      : table(ModelTable(rows, errors, seed)), auditor(MakeConfig()) {
    auto induced = auditor.Induce(table);
    EXPECT_TRUE(induced.ok()) << induced.status();
    model = std::move(*induced);
  }
  static AuditorConfig MakeConfig() {
    AuditorConfig c;
    c.min_error_confidence = 0.8;
    return c;
  }
};

/// The fixture's model after a save and a reload: the model a
/// `dqaudit --load-model` run checks with.
AuditModel Reloaded(const Fixture& f) {
  std::ostringstream os;
  EXPECT_TRUE(f.model.SerializeTo(&os).ok());
  auto back = AuditModel::Deserialize(f.table.schema(), os.str());
  EXPECT_TRUE(back.ok()) << back.status();
  return back.ok() ? std::move(*back) : AuditModel();
}

TEST(StructureModelTest, BuildsNonEmptyRuleSets) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  EXPECT_GT(sm.TotalRules(), 0u);
  EXPECT_FALSE(sm.models().empty());
  for (const AttributeModel& t : sm.models()) {
    EXPECT_EQ(t.encoder.attr(), t.class_attr);
    EXPECT_EQ(t.tree.num_classes(), t.encoder.num_classes());
  }
}

TEST(StructureModelTest, CheckFlagsPlantedErrors) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  auto report = sm.Check(f.table, f.config);
  ASSERT_TRUE(report.ok());
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(report->IsFlagged(r)) << "planted row " << r;
  }
}

TEST(StructureModelTest, CheckAgreesWithTreeAudit) {
  // Checking with the reloaded model and auditing with the induced one
  // coincide (every path attribute is known here).
  Fixture f;
  const AuditModel sm = Reloaded(f);
  auto rule_report = sm.Check(f.table, f.config);
  auto tree_report = f.auditor.Audit(f.model, f.table);
  ASSERT_TRUE(rule_report.ok());
  ASSERT_TRUE(tree_report.ok());
  EXPECT_EQ(rule_report->NumFlagged(), tree_report->NumFlagged());
  // At min_error_confidence 0 the lists hold every record's score.
  AuditorConfig all = f.config;
  all.min_error_confidence = 0.0;
  auto rule_all = sm.Check(f.table, all);
  auto tree_all = Auditor(all).Audit(f.model, f.table);
  ASSERT_TRUE(rule_all.ok());
  ASSERT_TRUE(tree_all.ok());
  const auto rule_rows = SuspicionsByRow(*rule_all, f.table.num_rows());
  const auto tree_rows = SuspicionsByRow(*tree_all, f.table.num_rows());
  for (size_t r = 0; r < f.table.num_rows(); ++r) {
    EXPECT_EQ(rule_report->IsFlagged(r), tree_report->IsFlagged(r))
        << "row " << r;
    EXPECT_NEAR(ConfidenceAt(rule_rows, r), ConfidenceAt(tree_rows, r), 1e-9)
        << "row " << r;
  }
}

TEST(StructureModelTest, SerializationRoundTrip) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  std::istringstream is(os.str());
  auto back = AuditModel::Deserialize(f.table.schema(), &is);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TotalRules(), sm.TotalRules());

  // The deserialized model checks identically, every record's score
  // included (the lists at min_error_confidence 0).
  auto before = sm.Check(f.table, f.config);
  auto after = back->Check(f.table, f.config);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->NumFlagged(), after->NumFlagged());
  AuditorConfig all = f.config;
  all.min_error_confidence = 0.0;
  auto before_all = sm.Check(f.table, all);
  auto after_all = back->Check(f.table, all);
  ASSERT_TRUE(before_all.ok());
  ASSERT_TRUE(after_all.ok());
  const auto before_rows = SuspicionsByRow(*before_all, f.table.num_rows());
  const auto after_rows = SuspicionsByRow(*after_all, f.table.num_rows());
  for (size_t r = 0; r < f.table.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(ConfidenceAt(before_rows, r), ConfidenceAt(after_rows, r))
        << "row " << r;
  }
}

TEST(StructureModelTest, RoundTripPreservesDiscretizedEncoders) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  // The Z attribute (numeric class) must have a discretized encoder if it
  // produced rules.
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  std::istringstream is(os.str());
  auto back = AuditModel::Deserialize(f.table.schema(), &is);
  ASSERT_TRUE(back.ok());
  for (const AttributeModel& t : back->models()) {
    if (t.class_attr == 2) {
      EXPECT_TRUE(t.encoder.is_discretized());
      EXPECT_GT(t.encoder.num_classes(), 1);
    }
  }
}

/// A temp path unique to the running test, so ctest -j can run the cases
/// of this suite as parallel processes.
std::string TestTempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

/// Check on a one-row table holding `row`.
AuditReport CheckOne(const AuditModel& sm, const Schema& schema,
                     const Row& row, const AuditorConfig& config) {
  Table t(schema);
  EXPECT_TRUE(t.AppendRow(row).ok());
  auto report = sm.Check(t, config);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(*report) : AuditReport{};
}

TEST(StructureModelTest, FileRoundTrip) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  const std::string path = TestTempPath("dq_structure_model") + ".dqmodel";
  ASSERT_TRUE(sm.SaveToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto back = AuditModel::LoadFromFile(f.table.schema(), path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TotalRules(), sm.TotalRules());
}

TEST(StructureModelTest, SaveIntoMissingDirectoryLeavesNoFile) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  const std::string dir = TestTempPath("dq_no_such_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/model.dqmodel";
  const Status saved = sm.SaveToFile(path);
  EXPECT_FALSE(saved.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(StructureModelTest, DeserializeRejectsGarbage) {
  Schema s = ModelSchema();
  for (const char* text : {
           "not a model\n",
           "dqmodel v2\nbogus tag\nend\n",
           // Missing 'end'.
           "dqmodel v2\nmodel 0 nominal 1\nleaf 0 0 10 10 0 0\n",
           // Node line before any model line.
           "dqmodel v2\nleaf 0 0 10 10 0 0\nend\n",
           // Class-count arity mismatch (X has 3 categories).
           "dqmodel v2\nmodel 0 nominal 1\nleaf 0 0 10 10 0\nend\n",
           // Split attribute index out of range.
           "dqmodel v2\nmodel 0 nominal 2\nsplit 0 9 cat 1 1 10\n"
           "leaf 10 0 10 10 0 0\nend\n",
       }) {
    std::istringstream is(text);
    EXPECT_FALSE(AuditModel::Deserialize(s, &is).ok()) << text;
  }
}

TEST(StructureModelTest, ReaderRejectsHostileInput) {
  Fixture f;
  const Schema& s = f.table.schema();
  std::ostringstream os;
  ASSERT_TRUE(f.model.SerializeTo(&os).ok());
  const std::string saved = os.str();
  ASSERT_TRUE(AuditModel::Deserialize(s, saved).ok());

  // Truncation at every line, with and without the line's newline.
  for (size_t eol = saved.find('\n'); eol + 1 < saved.size();
       eol = saved.find('\n', eol + 1)) {
    EXPECT_FALSE(AuditModel::Deserialize(s, saved.substr(0, eol + 1)).ok())
        << "cut after byte " << eol;
    EXPECT_FALSE(AuditModel::Deserialize(s, saved.substr(0, eol)).ok())
        << "cut before byte " << eol;
  }

  // Y's tree over X (see MinimalHandAuthoredModel), mutated one field at a
  // time.
  const auto y_model = [](const std::string& nodes, int count = 4) {
    return "dqmodel v2\nmodel 1 nominal " + std::to_string(count) + "\n" +
           nodes + "end\n";
  };
  const std::string leaves =
      "leaf 100 1 100 1 99 0\nleaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n";
  const std::string valid = y_model("split 0 0 cat 1 3 100\n" + leaves);
  ASSERT_TRUE(AuditModel::Deserialize(s, valid).ok());

  // A caterpillar of `le` splits on Z, one level deeper per split: node
  // 2i - 1 splits into the next split (2i + 1) and a leaf (2i + 2).
  const auto caterpillar = [&](int levels) {
    std::string nodes = "split 1 2 le 5 1 1\n";
    for (int i = 1; i < levels; ++i) {
      nodes += "split 1 2 le 5 " + std::to_string(2 * i + 1) + " 1\n";
      nodes += "leaf 1 1 1 0 1 0\n";
    }
    nodes += "leaf 1 1 1 0 1 0\nleaf 1 1 1 0 1 0\n";
    return y_model(nodes, 2 * levels + 1);
  };
  ASSERT_TRUE(AuditModel::Deserialize(s, caterpillar(10)).ok());

  struct Case {
    std::string text;
    std::string error;  // expected in the message
  };
  const std::vector<Case> cases = {
      {"dqmodel v1\nattrset 1 nominal\nend\n", "dqaudit --save-model"},
      {y_model("split 0 0 cat 2 3 100\n" + leaves), "out of range"},
      {y_model("split 0 0 cat 0 3 100\n" + leaves), "does not come after"},
      {y_model("split 0 0 cat 1 2 100\nsplit 50 0 cat 1 1 50\n"
               "leaf 50 1 50 0 50 0\n",
               3),
       "does not come after"},
      {y_model("split 0 0 cat 1 2 100\n" + leaves), "without a parent"},
      {y_model("split 0 9 cat 1 3 100\n" + leaves), "attribute out of range"},
      {y_model("split 0 2 cat 1 3 100\n" + leaves), "ordered attribute"},
      {y_model("split 0 0 le 1 1 100\n" + leaves), "nominal attribute"},
      {y_model("split 0 0 cat 1 3 100\nleaf 100 1 100 1 99\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "arity mismatch"},
      {y_model("split 0 0 cat 1 3 100\nleaf 100 1 100 1 99 0 0\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "arity mismatch"},
      {y_model("split 0 0 cat 1 3 100\nleaf 100 3 100 1 99 0\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "majority class out of range"},
      {y_model("split 0 0 cat 1 3 100\nleaf 100 1 -100 1 99 0\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "leaf weight"},
      {y_model("split 0 0 cat 1 3 100\nleaf 100 1 100 nan 99 0\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "class counts"},
      {y_model("split 0 0 cat 1 3 100\nleaf -1 1 100 1 99 0\n"
               "leaf 0 1 0 0 0 0\nleaf 0 1 0 0 0 0\n"),
       "branch weight"},
      {y_model("split 0 0 cat 1 3 nan\n" + leaves), "malformed split"},
      {"dqmodel v2\nmodel 1 nominal 3\nsplit 0 2 le inf 1 100\n"
       "leaf 50 1 50 0 50 0\nleaf 50 0 50 50 0 0\nend\n",
       "malformed split"},
      {"dqmodel v2\nmodel 1 nominal 4000000000\nleaf 0 1 1 0 1 0\nend\n",
       "does not fit"},
      {"dqmodel v2\nmodel 1 nominal 0\nend\n", "at least one node"},
      {"dqmodel v2\nmodel 1 nominal 1\nleaf 0 1 1 0 1 0\n"
       "model 1 nominal 1\nleaf 0 1 1 0 1 0\nend\n",
       "second model for attribute 1"},
      {caterpillar(1100), "too deep"},
      {valid + "x", "after 'end'"},
      {valid + "\n", "after 'end'"},
      {valid + "end\n", "after 'end'"},
      {valid.substr(0, valid.size() - 1), "after 'end'"},
  };
  for (const Case& c : cases) {
    auto parsed = AuditModel::Deserialize(s, c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_NE(parsed.status().message().find(c.error), std::string::npos)
        << parsed.status() << "\n" << c.text.substr(0, 200);
  }
  // With a finite threshold the same tree loads.
  EXPECT_TRUE(AuditModel::Deserialize(
                  s, "dqmodel v2\nmodel 1 nominal 3\nsplit 0 2 le 5 1 100\n"
                     "leaf 50 1 50 0 50 0\nleaf 50 0 50 50 0 0\nend\n")
                  .ok());
}

/// The words Mutate swaps into a saved model.
const std::vector<std::string_view> kModelTokens = {
    "nan", "inf", "-1", "4294967296", "le", "cat", "leaf", "split", "end"};

TEST(StructureModelTest, MutatedModelsFailOrServeEveryConsumer) {
  // Every mutant of a saved model either fails to load with a Status or
  // loads into a model that counts, renders, checks, explains and saves;
  // saving what was loaded is a fixed point of load-and-save. The model is
  // induced on polluted QUIS records, so it holds nominal and discretized
  // encoders, `cat` and `le` splits, and the probe records hold nulls.
  QuisConfig qcfg;
  qcfg.num_records = 3000;
  qcfg.seed = 5;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  auto polluted =
      PollutionPipeline(DefaultPolluterMix(), 5).Apply(sample->table);
  ASSERT_TRUE(polluted.ok());
  const Table& data = polluted->dirty;
  const Schema& s = data.schema();
  AuditorConfig config = Fixture::MakeConfig();
  config.num_threads = 1;
  auto induced = Auditor(config).Induce(data);
  ASSERT_TRUE(induced.ok()) << induced.status();
  std::ostringstream os;
  ASSERT_TRUE(induced->SerializeTo(&os).ok());
  const std::string saved = os.str();
  for (const char* part : {" nominal ", " discretized ", " cat ", " le "}) {
    ASSERT_NE(saved.find(part), std::string::npos) << part;
  }
  Table probe(s);
  for (size_t r = 0; r < 24; ++r) {
    ASSERT_TRUE(probe.AppendRow(data.row(r)).ok());
  }

  Rng rng(2003);
  constexpr int kCases = 20000;
  int loaded = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = saved;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) Mutate(&rng, &text, kModelTokens);
    auto model = AuditModel::Deserialize(s, text);
    if (!model.ok()) {
      ASSERT_FALSE(model.status().message().empty()) << "case " << c;
      continue;
    }
    ++loaded;
    (void)model->TotalRules();
    (void)RenderStructureModel(*model, s, config);
    auto report = model->Check(probe, config);
    ASSERT_TRUE(report.ok()) << "case " << c << ": " << report.status();
    for (size_t r = 0; r < probe.num_rows(); ++r) {
      auto detail = ExplainRecord(*model, probe, r, config);
      ASSERT_TRUE(detail.ok()) << "case " << c;
      (void)RenderSuspicionDetail(*detail, *model, probe);
    }
    std::ostringstream resaved;
    ASSERT_TRUE(model->SerializeTo(&resaved).ok());
    auto reloaded = AuditModel::Deserialize(s, resaved.str());
    ASSERT_TRUE(reloaded.ok()) << "case " << c << ": " << reloaded.status();
    std::ostringstream again;
    ASSERT_TRUE(reloaded->SerializeTo(&again).ok());
    ASSERT_EQ(again.str(), resaved.str()) << "case " << c;
  }
  // Both outcomes occur: the mutations neither all break the format nor
  // all miss it.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kCases);
}

TEST(StructureModelTest, MinimalHandAuthoredModel) {
  // Y's tree splits on X; only the X = x0 branch saw training data, and
  // there Y = y1 in 99 of 100 records.
  Schema s = ModelSchema();
  std::istringstream is(
      "dqmodel v2\n"
      "model 1 nominal 4\n"
      "split 0 0 cat 1 3 100\n"
      "leaf 100 1 100 1 99 0\n"
      "leaf 0 1 0 0 0 0\n"
      "leaf 0 1 0 0 0 0\n"
      "end\n");
  auto sm = AuditModel::Deserialize(s, &is);
  ASSERT_TRUE(sm.ok()) << sm.status();
  ASSERT_EQ(sm->TotalRules(), 1u);

  // A record reaching the trained leaf with a deviating Y is flagged.
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // deviates (the leaf says Y=y1)
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(1),
                           Value::Numeric(1.0)})
                  .ok());  // conforms
  ASSERT_TRUE(t.AppendRow({Value::Nominal(2), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // empty leaf: no support, never flagged
  AuditorConfig config;
  config.min_error_confidence = 0.8;
  auto report = sm->Check(t, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->IsFlagged(0));
  EXPECT_FALSE(report->IsFlagged(1));
  EXPECT_FALSE(report->IsFlagged(2));
  EXPECT_EQ(report->suspicious[0].suggestion.nominal_code(), 1);
}

TEST(StructureModelTest, NullPathValueScoredLikeAudit) {
  // A null split value follows every branch with C4.5's branch weights, in
  // the persisted model exactly as in the in-memory audit.
  Fixture f;
  const AuditModel sm = Reloaded(f);
  Table t(f.table.schema());
  for (int32_t y = 0; y < 3; ++y) {
    ASSERT_TRUE(
        t.AppendRow({Value::Null(), Value::Nominal(y), Value::Numeric(5.0)})
            .ok());
    ASSERT_TRUE(
        t.AppendRow({Value::Nominal(y), Value::Null(), Value::Null()}).ok());
  }
  auto checked = sm.Check(t, f.config);
  auto audited = f.auditor.Audit(f.model, t);
  ASSERT_TRUE(checked.ok());
  ASSERT_TRUE(audited.ok());
  // At min_error_confidence 0 the lists hold every record's score.
  AuditorConfig all = f.config;
  all.min_error_confidence = 0.0;
  auto checked_all = sm.Check(t, all);
  auto audited_all = Auditor(all).Audit(f.model, t);
  ASSERT_TRUE(checked_all.ok());
  ASSERT_TRUE(audited_all.ok());
  ExpectSameSuspicions(*checked_all, *audited_all);
  // The Y model sees X null and still scores: it blends the X branches.
  EXPECT_GT(ConfidenceAt(SuspicionsByRow(*checked_all, t.num_rows()), 0), 0.0);
  std::ostringstream checked_csv;
  std::ostringstream audited_csv;
  ASSERT_TRUE(WriteAuditReportCsv(*checked, t, &checked_csv).ok());
  ASSERT_TRUE(WriteAuditReportCsv(*audited, t, &audited_csv).ok());
  EXPECT_EQ(checked_csv.str(), audited_csv.str());
}

TEST(StructureModelTest, CheckRecordMatchesBatchCheck) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  auto report = sm.Check(f.table, f.config);
  ASSERT_TRUE(report.ok());
  AuditorConfig all = f.config;
  all.min_error_confidence = 0.0;
  auto report_all = sm.Check(f.table, all);
  ASSERT_TRUE(report_all.ok());
  const auto rows = SuspicionsByRow(*report_all, f.table.num_rows());
  for (size_t r = 0; r < 200; ++r) {
    const AuditReport one =
        CheckOne(sm, f.table.schema(), f.table.row(r), f.config);
    ASSERT_EQ(one.flagged.size(), 1u);
    EXPECT_EQ(one.IsFlagged(0), report->IsFlagged(r)) << "row " << r;
    const AuditReport one_all =
        CheckOne(sm, f.table.schema(), f.table.row(r), all);
    EXPECT_DOUBLE_EQ(ConfidenceAt(SuspicionsByRow(one_all, 1), 0),
                     ConfidenceAt(rows, r))
        << "row " << r;
  }
}

TEST(StructureModelTest, CheckRecordOnConformingRecord) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  Row row(3);
  row[0] = Value::Nominal(1);
  row[1] = Value::Nominal(1);  // consistent with Y == X
  row[2] = Value::Numeric(32.0);
  const AuditReport one = CheckOne(sm, f.table.schema(), row, f.config);
  EXPECT_FALSE(one.IsFlagged(0));
}

TEST(StructureModelTest, CheckRecordOnDeviatingRecord) {
  Fixture f;
  const AuditModel sm = Reloaded(f);
  Row row(3);
  row[0] = Value::Nominal(1);
  row[1] = Value::Nominal(2);  // violates Y == X
  row[2] = Value::Numeric(32.0);
  const AuditReport one = CheckOne(sm, f.table.schema(), row, f.config);
  ASSERT_EQ(one.suspicious.size(), 1u);
  EXPECT_GE(one.suspicious[0].error_confidence, 0.8);
  EXPECT_GT(one.suspicious[0].support, 0.0);
}

// --- Review (sec. 5.3) -----------------------------------------------------------

TEST(ReviewTest, ExplainsPlantedDeviation) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, 0, f.config);
  ASSERT_TRUE(detail.ok());
  EXPECT_GT(detail->combined_confidence, 0.8);
  ASSERT_FALSE(detail->dissenting.empty());
  // Dissenting opinions are sorted strongest first.
  for (size_t i = 1; i < detail->dissenting.size(); ++i) {
    EXPECT_GE(detail->dissenting[i - 1].error_confidence,
              detail->dissenting[i].error_confidence);
  }
  // Each opinion carries a usable distribution.
  for (const ClassifierOpinion& o : detail->dissenting) {
    double total = 0.0;
    for (double p : o.distribution) total += p;
    EXPECT_NEAR(total, 1.0, 1e-6);
    EXPECT_GT(o.support, 0.0);
  }
}

TEST(ReviewTest, CleanRecordHasNoDissent) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, f.table.num_rows() - 1,
                              f.config);
  ASSERT_TRUE(detail.ok());
  EXPECT_LT(detail->combined_confidence, 0.8);
}

TEST(ReviewTest, RenderMentionsObservedAndPredicted) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, 0, f.config);
  ASSERT_TRUE(detail.ok());
  const std::string sheet = RenderSuspicionDetail(*detail, f.model, f.table);
  EXPECT_NE(sheet.find("observed"), std::string::npos);
  EXPECT_NE(sheet.find("predicted"), std::string::npos);
  EXPECT_NE(sheet.find("distribution"), std::string::npos);
}

TEST(ReviewTest, LoadedModelListsRulesAndExplainsLikeTheInduced) {
  // A loaded model is the type the induced one is, so the rule listing
  // and every review sheet come out the same.
  Fixture f;
  const AuditModel loaded = Reloaded(f);
  EXPECT_EQ(
      ExtractStructureModel(loaded, f.config, /*drop_useless=*/false).size(),
      ExtractStructureModel(f.model, f.config, /*drop_useless=*/false).size());
  EXPECT_EQ(RenderStructureModel(loaded, f.table.schema(), f.config),
            RenderStructureModel(f.model, f.table.schema(), f.config));
  for (size_t r = 0; r < 50; ++r) {
    auto induced = ExplainRecord(f.model, f.table, r, f.config);
    auto reloaded = ExplainRecord(loaded, f.table, r, f.config);
    ASSERT_TRUE(induced.ok());
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(RenderSuspicionDetail(*reloaded, loaded, f.table),
              RenderSuspicionDetail(*induced, f.model, f.table))
        << "row " << r;
  }
}

TEST(ReviewTest, RowOutOfRangeRejected) {
  Fixture f;
  EXPECT_FALSE(ExplainRecord(f.model, f.table, f.table.num_rows(),
                             f.config)
                   .ok());
}

}  // namespace
}  // namespace dq
