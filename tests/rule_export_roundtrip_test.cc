// Tests for the dqsuggest candidate extraction and the annotated rule-file
// round trip: exported files re-parse through the regular rule parser with
// zero errors, lint clean of DQ001–DQ004, and preserve the rule set
// exactly. Includes golden output for the annotated format and unit tests
// for the encoding edge cases (<= spelled as an OR, date flooring, vacuous
// conditions, discretized bin consequents).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/rule_export.h"
#include "lint/lint.h"
#include "quis/quis_sample.h"
#include "table/date.h"

namespace dq {
namespace {

Schema ExportSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("GROUP", {"G1", "G2", "G3", "G4"}).ok());
  EXPECT_TRUE(s.AddNominal("FAMILY", {"F1", "F2", "F3", "F4"}).ok());
  EXPECT_TRUE(s.AddNumeric("WEIGHT", 0.1, 500.0).ok());
  EXPECT_TRUE(s.AddDate("INTRODUCED", DaysFromCivil({1995, 1, 1}),
                        DaysFromCivil({2003, 12, 31}))
                  .ok());
  return s;
}

CandidateRule Cand(const Schema& schema, const std::string& text,
                   double confidence, size_t support_count, double coverage,
                   const std::string& source) {
  auto rule = ParseRule(schema, text);
  EXPECT_TRUE(rule.ok()) << text << ": " << rule.status().message();
  CandidateRule c;
  c.rule = std::move(*rule);
  c.source = source;
  c.confidence = confidence;
  c.support_count = support_count;
  c.coverage = coverage;
  return c;
}

/// Builds a structure rule from split conditions.
StructureRule MakeRule(int class_attr, std::vector<SplitCondition> conditions,
                       int majority_class, double support, double purity) {
  StructureRule r;
  r.class_attr = class_attr;
  r.conditions = std::move(conditions);
  r.majority_class = majority_class;
  r.support = support;
  r.purity = purity;
  return r;
}

SplitCondition Cat(int attr, int32_t category) {
  SplitCondition c;
  c.attr = attr;
  c.kind = SplitCondition::Kind::kCategory;
  c.category = category;
  return c;
}

SplitCondition LessEq(int attr, double threshold) {
  SplitCondition c;
  c.attr = attr;
  c.kind = SplitCondition::Kind::kLessEq;
  c.threshold = threshold;
  return c;
}

SplitCondition Greater(int attr, double threshold) {
  SplitCondition c;
  c.attr = attr;
  c.kind = SplitCondition::Kind::kGreater;
  c.threshold = threshold;
  return c;
}

ClassEncoder FitEncoder(const Schema& s, int class_attr) {
  auto encoder = ClassEncoder::Fit(Table(s), class_attr, 8);
  EXPECT_TRUE(encoder.ok());
  return std::move(*encoder);
}

TEST(RuleExportTest, GoldenAnnotatedFile) {
  Schema s = ExportSchema();
  std::vector<CandidateRule> rules = {
      Cand(s, "GROUP = G1 -> FAMILY = F1", 0.9876, 400, 0.405,
           "c45:FAMILY:path#1"),
      Cand(s, "WEIGHT > 100 -> FAMILY = F2", 0.9, 50, 0.055556, "assoc#3"),
  };
  const std::string rendered =
      RenderSuggestedRuleFile(rules, s, "mined suggestions\nsecond line");
  EXPECT_EQ(rendered,
            "# mined suggestions\n"
            "# second line\n"
            "# @rule conf=0.9876 support=400 coverage=0.405 "
            "source=c45:FAMILY:path#1\n"
            "GROUP = G1 -> FAMILY = F1\n"
            "# @rule conf=0.9 support=50 coverage=0.055556 source=assoc#3\n"
            "WEIGHT > 100 -> FAMILY = F2\n");
}

TEST(RuleExportTest, AnnotatedFileRoundTripsThroughParser) {
  Schema s = ExportSchema();
  std::vector<CandidateRule> rules = {
      Cand(s, "GROUP = G1 -> FAMILY = F1", 0.99, 400, 0.4, "c45:FAMILY:path#1"),
      Cand(s, "(WEIGHT < 250 OR WEIGHT = 250) AND GROUP = G2 -> FAMILY = F2",
           0.95, 120, 0.12, "c45:FAMILY:path#2"),
      Cand(s, "INTRODUCED > 2000-06-15 -> GROUP != G4", 0.93, 80, 0.08,
           "assoc#1"),
  };
  const std::string rendered = RenderSuggestedRuleFile(rules, s, "header");
  std::istringstream in(rendered);
  RuleFileParse parse = ParseRuleFileLenient(s, &in);
  EXPECT_TRUE(parse.errors.empty());
  ASSERT_EQ(parse.rules.size(), rules.size());
  // The parsed rules render back to the same source text.
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(RenderRuleSource(parse.rules[i].rule, s),
              RenderRuleSource(rules[i].rule, s));
  }
}

TEST(RuleExportTest, AnnotatedFileLintsCleanOfParseChecks) {
  Schema s = ExportSchema();
  std::vector<CandidateRule> rules = {
      Cand(s, "GROUP = G1 -> FAMILY = F1", 0.99, 400, 0.4, "c45:FAMILY:path#1"),
      Cand(s, "WEIGHT > 100 AND WEIGHT < 200 -> FAMILY = F2", 0.9, 50, 0.06,
           "assoc#3"),
  };
  const std::string rendered = RenderSuggestedRuleFile(rules, s, "");
  Linter linter(&s);
  std::istringstream in(rendered);
  const LintResult result = linter.LintFile(&in);
  EXPECT_EQ(result.rules_checked, rules.size());
  for (const char* id : {"DQ001", "DQ002", "DQ003", "DQ004"}) {
    for (const LintDiagnostic& d : result.diagnostics) {
      EXPECT_NE(d.check_id, id) << d.message;
    }
  }
}

// --- Encoding edge cases -----------------------------------------------------

TEST(RuleExportTest, LessEqSpelledAsDisjunction) {
  // The grammar has no <=; a kLessEq split becomes (A < t OR A = t).
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 1);  // FAMILY, nominal
  StructureRule r = MakeRule(1, {LessEq(2, 250.0)}, 0, 100.0, 0.97);
  auto cand = StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:FAMILY:p");
  ASSERT_TRUE(cand.ok()) << cand.status().message();
  EXPECT_EQ(RenderRuleSource(cand->rule, s),
            "WEIGHT < 250 OR WEIGHT = 250 -> FAMILY = F1");
  EXPECT_DOUBLE_EQ(cand->confidence, 0.97);
  EXPECT_EQ(cand->support_count, 97u);  // llround(purity * support)
  EXPECT_DOUBLE_EQ(cand->coverage, 0.1);
}

TEST(RuleExportTest, DateThresholdFloorsToWholeDays) {
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 0);  // GROUP
  const double cut = static_cast<double>(DaysFromCivil({2000, 6, 15})) + 0.7;
  StructureRule r = MakeRule(0, {Greater(3, cut)}, 1, 80.0, 1.0);
  auto cand = StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:GROUP:p");
  ASSERT_TRUE(cand.ok());
  EXPECT_EQ(RenderRuleSource(cand->rule, s),
            "INTRODUCED > 2000-06-15 -> GROUP = G2");
}

TEST(RuleExportTest, VacuousConditionIsDropped) {
  // WEIGHT <= 600 always holds inside the [0.1, 500] domain: the condition
  // is dropped, the rest of the premise survives.
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 1);
  StructureRule r =
      MakeRule(1, {Cat(0, 0), LessEq(2, 600.0)}, 0, 100.0, 0.95);
  auto cand = StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:FAMILY:p");
  ASSERT_TRUE(cand.ok());
  EXPECT_EQ(RenderRuleSource(cand->rule, s), "GROUP = G1 -> FAMILY = F1");
}

TEST(RuleExportTest, AllVacuousPremiseFails) {
  // A premise that reduces to TRUE is inexpressible (the grammar has no
  // TRUE literal) — conversion must fail rather than emit a broken rule.
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 1);
  StructureRule r = MakeRule(1, {LessEq(2, 600.0)}, 0, 100.0, 0.95);
  EXPECT_FALSE(
      StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:FAMILY:p").ok());
}

TEST(RuleExportTest, EmptyPremiseFails) {
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 1);
  StructureRule r = MakeRule(1, {}, 0, 100.0, 0.95);
  EXPECT_FALSE(
      StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:FAMILY:p").ok());
}

TEST(RuleExportTest, ImpossibleThresholdFails) {
  // WEIGHT > 600 can never hold inside the domain: the premise is
  // unsatisfiable and conversion fails.
  Schema s = ExportSchema();
  const ClassEncoder encoder = FitEncoder(s, 1);
  StructureRule r = MakeRule(1, {Greater(2, 600.0)}, 0, 100.0, 0.95);
  EXPECT_FALSE(
      StructureRuleToCandidate(r, encoder, s, 1000.0, "c45:FAMILY:p").ok());
}

// --- End-to-end extraction over the QUIS sample ------------------------------

TEST(RuleExportTest, QuisExtractionRoundTripsAndLints) {
  QuisConfig config;
  config.num_records = 4000;
  auto sample = GenerateQuisSample(config);
  ASSERT_TRUE(sample.ok());
  const Schema& s = sample->table.schema();

  Auditor auditor;
  auto model = auditor.Induce(sample->table);
  ASSERT_TRUE(model.ok());
  const std::vector<CandidateRule> cands =
      ExtractCandidateRules(*model, s, auditor.config(),
                            static_cast<double>(sample->table.num_rows()));
  ASSERT_GT(cands.size(), 10u);
  for (const CandidateRule& c : cands) {
    EXPECT_GE(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0 + 1e-9);
    EXPECT_GE(c.coverage, c.support - 1e-9);
    EXPECT_EQ(c.source.rfind("c45:", 0), 0u) << c.source;
  }

  // Every extracted candidate survives the annotated-file round trip.
  const std::string rendered = RenderSuggestedRuleFile(cands, s, "quis");
  std::istringstream in(rendered);
  RuleFileParse parse = ParseRuleFileLenient(s, &in);
  EXPECT_TRUE(parse.errors.empty());
  EXPECT_EQ(parse.rules.size(), cands.size());

  Linter linter(&s);
  const LintResult lint = linter.LintParse(parse);
  for (const char* id : {"DQ001", "DQ002", "DQ003", "DQ004"}) {
    for (const LintDiagnostic& d : lint.diagnostics) {
      EXPECT_NE(d.check_id, id) << d.message;
    }
  }
}

}  // namespace
}  // namespace dq
