// Parameterized property suites sweeping configuration axes: inducer kinds,
// polluter kinds, C4.5 pruning configurations, minimal-error-confidence
// thresholds and schema shapes (satisfiability soundness).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "audit/auditor.h"
#include "logic/sat.h"
#include "pollution/pipeline.h"
#include "report_rows.h"
#include "stats/distribution.h"

namespace dq {
namespace {

// ===========================================================================
// Suite 1: every inducer kind through the audit pipeline
// ===========================================================================

Schema AuditSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", {"w0", "w1", "w2", "w3"}).ok());
  return s;
}

Table PlantedTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = AuditSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

class InducerSuite : public testing::TestWithParam<InducerKind> {
 protected:
  AuditorConfig Config() const {
    AuditorConfig c;
    c.min_error_confidence = 0.8;
    c.inducer = GetParam();
    // Def. 7 needs support >= ~35 for conf 0.8, and the audited record sits
    // inside its own neighbourhood (single-database regime), so k must be
    // large enough that one self-vote does not drag the bound below 0.8.
    c.knn.k = 128;
    return c;
  }
};

TEST_P(InducerSuite, FlagsStrongPlantedDeviations) {
  Table t = PlantedTable(4000, 5, 90);
  Auditor auditor(Config());
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok()) << model.status();
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  size_t hits = 0;
  for (size_t r = 0; r < 5; ++r) hits += report->IsFlagged(r) ? 1 : 0;
  // Every inducer must catch a majority of blatant single-dependency
  // violations (the dependency is deterministic and heavily supported).
  EXPECT_GE(hits, 3u) << InducerKindToString(GetParam());
  // And must not flag a large share of the clean records.
  EXPECT_LE(report->NumFlagged(), 5 + t.num_rows() / 20)
      << InducerKindToString(GetParam());
}

TEST_P(InducerSuite, AuditIsDeterministic) {
  Table t = PlantedTable(1500, 3, 91);
  Auditor auditor(Config());
  auto m1 = auditor.Induce(t);
  auto m2 = auditor.Induce(t);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  // At min_error_confidence 0 the lists hold every record's score.
  AuditorConfig all = Config();
  all.min_error_confidence = 0.0;
  auto r1 = Auditor(all).Audit(*m1, t);
  auto r2 = Auditor(all).Audit(*m2, t);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ExpectSameSuspicions(*r1, *r2);
}

TEST_P(InducerSuite, SuggestionsDecodeToSchemaValues) {
  Table t = PlantedTable(2000, 4, 92);
  Auditor auditor(Config());
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  for (const Suspicion& s : report->suspicious) {
    EXPECT_TRUE(
        t.schema().attribute(static_cast<size_t>(s.attr)).InDomain(s.suggestion));
  }
}

INSTANTIATE_TEST_SUITE_P(AllInducers, InducerSuite,
                         testing::Values(InducerKind::kC45,
                                         InducerKind::kNaiveBayes,
                                         InducerKind::kKnn,
                                         InducerKind::kOneR),
                         [](const auto& param_info) {
                           std::string name = InducerKindToString(param_info.param);
                           name.erase(std::remove_if(name.begin(), name.end(),
                                                     [](char c) {
                                                       return !isalnum(c);
                                                     }),
                                      name.end());
                           return name;
                         });

// ===========================================================================
// Suite 2: polluter invariants per kind
// ===========================================================================

Schema PollSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"a0", "a1", "a2"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"b0", "b1", "b2"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNumeric("M", 0.0, 100.0).ok());
  return s;
}

Table PollTable(size_t rows, uint64_t seed) {
  Schema s = PollSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    Row row(4);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[2] = Value::Numeric(rng.UniformReal(0, 100));
    row[3] = Value::Numeric(rng.UniformReal(0, 100));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

PolluterConfig ConfigFor(PolluterKind kind, double prob) {
  switch (kind) {
    case PolluterKind::kWrongValue:
      return PolluterConfig::WrongValue(prob);
    case PolluterKind::kNullValue:
      return PolluterConfig::NullValue(prob);
    case PolluterKind::kLimiter:
      return PolluterConfig::Limiter(prob, 0.25, 0.75);
    case PolluterKind::kSwitcher:
      return PolluterConfig::Switcher(prob);
    case PolluterKind::kDuplicator:
      return PolluterConfig::Duplicator(prob, 0.5);
  }
  return PolluterConfig::WrongValue(prob);
}

class PolluterSuite : public testing::TestWithParam<PolluterKind> {};

TEST_P(PolluterSuite, ZeroActivationIsIdentity) {
  Table clean = PollTable(300, 95);
  PollutionPipeline pipeline({ConfigFor(GetParam(), 0.0)}, 1);
  auto result = pipeline.Apply(clean);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CorruptedCount(), 0u);
  EXPECT_TRUE(result->log.empty());
  EXPECT_EQ(result->dirty.num_rows(), clean.num_rows());
}

TEST_P(PolluterSuite, DirtyTableStaysSchemaValid) {
  Table clean = PollTable(500, 96);
  PollutionPipeline pipeline({ConfigFor(GetParam(), 0.3)}, 2);
  auto result = pipeline.Apply(clean);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->dirty.Validate().ok());
}

TEST_P(PolluterSuite, LogMatchesGroundTruth) {
  Table clean = PollTable(500, 97);
  PollutionPipeline pipeline({ConfigFor(GetParam(), 0.3)}, 3);
  auto result = pipeline.Apply(clean);
  ASSERT_TRUE(result.ok());
  // Every cell-level event's dirty row is marked corrupted; every event
  // carries the pipeline's kind.
  for (const CorruptionEvent& ev : result->log) {
    EXPECT_EQ(ev.kind, GetParam());
    if (ev.dirty_row != CorruptionEvent::kNoRow) {
      EXPECT_TRUE(result->is_corrupted[ev.dirty_row]);
    }
  }
  // And corrupted rows have at least one log entry (or are duplicates).
  std::vector<int> events_per_row(result->dirty.num_rows(), 0);
  for (const CorruptionEvent& ev : result->log) {
    if (ev.dirty_row != CorruptionEvent::kNoRow) {
      ++events_per_row[ev.dirty_row];
    }
  }
  for (size_t r = 0; r < result->dirty.num_rows(); ++r) {
    if (result->is_corrupted[r]) {
      EXPECT_GE(events_per_row[r], 1) << "row " << r;
    }
  }
}

TEST_P(PolluterSuite, ActivationScalesMonotonically) {
  Table clean = PollTable(800, 98);
  auto count = [&](double prob) {
    PollutionPipeline pipeline({ConfigFor(GetParam(), prob)}, 4);
    auto result = pipeline.Apply(clean);
    EXPECT_TRUE(result.ok());
    return result->log.size();
  };
  EXPECT_LE(count(0.05), count(0.5));
}

INSTANTIATE_TEST_SUITE_P(AllPolluters, PolluterSuite,
                         testing::Values(PolluterKind::kWrongValue,
                                         PolluterKind::kNullValue,
                                         PolluterKind::kLimiter,
                                         PolluterKind::kSwitcher,
                                         PolluterKind::kDuplicator),
                         [](const auto& param_info) {
                           std::string name = PolluterKindToString(param_info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

// ===========================================================================
// Suite 3: minimal error confidence threshold sweep
// ===========================================================================

class MinConfSuite : public testing::TestWithParam<double> {};

TEST_P(MinConfSuite, FlagVolumeShrinksWithThreshold) {
  Table t = PlantedTable(3000, 30, 99);
  AuditorConfig lo_cfg;
  lo_cfg.min_error_confidence = GetParam();
  AuditorConfig hi_cfg;
  hi_cfg.min_error_confidence = std::min(GetParam() + 0.15, 0.999);

  auto lo_model = Auditor(lo_cfg).Induce(t);
  auto hi_model = Auditor(hi_cfg).Induce(t);
  ASSERT_TRUE(lo_model.ok());
  ASSERT_TRUE(hi_model.ok());
  auto lo = Auditor(lo_cfg).Audit(*lo_model, t);
  auto hi = Auditor(hi_cfg).Audit(*hi_model, t);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_GE(lo->NumFlagged(), hi->NumFlagged());
}

TEST_P(MinConfSuite, FlaggedRecordsMeetTheThreshold) {
  Table t = PlantedTable(3000, 10, 100);
  AuditorConfig cfg;
  cfg.min_error_confidence = GetParam();
  Auditor auditor(cfg);
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  for (const Suspicion& s : report->suspicious) {
    EXPECT_GE(s.error_confidence, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MinConfSuite,
                         testing::Values(0.5, 0.7, 0.8, 0.9, 0.95),
                         [](const auto& param_info) {
                           return "conf" +
                                  std::to_string(static_cast<int>(
                                      param_info.param * 100));
                         });

// ===========================================================================
// Suite 4: satisfiability soundness over schema shapes
// ===========================================================================

struct SatSchemaShape {
  const char* name;
  int nominal_categories;
  double numeric_width;
  int date_span;
};

// gtest appends the printed parameter to each ctest name. Without this
// printer it dumps the struct's bytes, whose `name` pointer and padding
// differ between builds.
void PrintTo(const SatSchemaShape& shape, std::ostream* os) {
  *os << shape.name;
}

class SatSoundnessSuite : public testing::TestWithParam<SatSchemaShape> {
 protected:
  Schema MakeSchema() const {
    const SatSchemaShape& shape = GetParam();
    Schema s;
    std::vector<std::string> cats;
    for (int i = 0; i < shape.nominal_categories; ++i) {
      cats.push_back("v" + std::to_string(i));
    }
    EXPECT_TRUE(s.AddNominal("A", cats).ok());
    EXPECT_TRUE(s.AddNominal("B", cats).ok());
    EXPECT_TRUE(s.AddNumeric("N", 0.0, shape.numeric_width).ok());
    EXPECT_TRUE(s.AddNumeric("M", 0.0, shape.numeric_width).ok());
    EXPECT_TRUE(s.AddDate("D", 0, shape.date_span).ok());
    return s;
  }

  std::vector<Atom> RandomConjunction(const Schema& s, Rng* rng) const {
    std::vector<Atom> atoms;
    const int n = static_cast<int>(rng->UniformInt(1, 5));
    for (int i = 0; i < n; ++i) {
      switch (rng->UniformInt(0, 8)) {
        case 0:
          atoms.push_back(Atom::Prop(
              0, AtomOp::kEq,
              Value::Nominal(static_cast<int32_t>(rng->UniformInt(
                  0, static_cast<int64_t>(s.attribute(0).categories.size()) -
                         1)))));
          break;
        case 1:
          atoms.push_back(Atom::Prop(
              0, AtomOp::kNeq,
              Value::Nominal(static_cast<int32_t>(rng->UniformInt(
                  0, static_cast<int64_t>(s.attribute(0).categories.size()) -
                         1)))));
          break;
        case 2:
          atoms.push_back(Atom::Prop(
              2, AtomOp::kLt,
              Value::Numeric(rng->UniformReal(0, s.attribute(2).numeric_max))));
          break;
        case 3:
          atoms.push_back(Atom::Prop(
              2, AtomOp::kGt,
              Value::Numeric(rng->UniformReal(0, s.attribute(2).numeric_max))));
          break;
        case 4:
          atoms.push_back(Atom::Rel(2, AtomOp::kLt, 3));
          break;
        case 5:
          atoms.push_back(Atom::Rel(0, AtomOp::kEq, 1));
          break;
        case 6:
          atoms.push_back(Atom::Rel(0, AtomOp::kNeq, 1));
          break;
        case 7:
          atoms.push_back(Atom::Prop(0, AtomOp::kIsNull));
          break;
        default:
          atoms.push_back(Atom::Prop(
              4, AtomOp::kGt,
              Value::Date(static_cast<int32_t>(
                  rng->UniformInt(0, s.attribute(4).date_max)))));
          break;
      }
    }
    return atoms;
  }
};

TEST_P(SatSoundnessSuite, UnsatisfiableMeansNoRandomModel) {
  // Soundness: whenever the pragmatic test reports "unsatisfiable", no
  // randomly sampled assignment may satisfy the conjunction.
  Schema s = MakeSchema();
  SatChecker sat(&s);
  Rng rng(7 + GetParam().nominal_categories);
  int unsat_count = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Atom> atoms = RandomConjunction(s, &rng);
    if (sat.ConjunctionSatisfiable(atoms)) continue;
    ++unsat_count;
    for (int sample = 0; sample < 300; ++sample) {
      Row row(s.num_attributes());
      for (size_t a = 0; a < s.num_attributes(); ++a) {
        if (rng.Bernoulli(0.15)) continue;  // null
        row[a] = SampleValue(DistributionSpec::Uniform(), s.attribute(a), &rng);
      }
      bool all = true;
      for (const Atom& atom : atoms) {
        if (!atom.Evaluate(row)) {
          all = false;
          break;
        }
      }
      ASSERT_FALSE(all) << "claimed-unsat conjunction has a model";
    }
  }
  // The random generator produces enough contradictions to be meaningful.
  EXPECT_GT(unsat_count, 5);
}

TEST_P(SatSoundnessSuite, SolverOutputSatisfiesConjunction) {
  Schema s = MakeSchema();
  SatChecker sat(&s);
  Rng rng(11 + GetParam().date_span);
  int solved = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Atom> atoms = RandomConjunction(s, &rng);
    Row base(s.num_attributes());
    for (size_t a = 0; a < s.num_attributes(); ++a) {
      base[a] = SampleValue(DistributionSpec::Uniform(), s.attribute(a), &rng);
    }
    auto row = sat.SolveConjunction(atoms, base, &rng);
    if (!row.ok()) continue;
    ++solved;
    for (const Atom& atom : atoms) {
      ASSERT_TRUE(atom.Evaluate(*row));
    }
  }
  EXPECT_GT(solved, 50);
}

INSTANTIATE_TEST_SUITE_P(
    SchemaShapes, SatSoundnessSuite,
    testing::Values(SatSchemaShape{"tiny", 2, 1.0, 3},
                    SatSchemaShape{"small", 4, 10.0, 30},
                    SatSchemaShape{"wide", 12, 1000.0, 3650}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace dq
