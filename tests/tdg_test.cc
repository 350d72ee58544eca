// Tests for the test data generator (sec. 4.1): random natural-rule-set
// generation and rule-conformant data generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "eval/test_environment.h"
#include "logic/natural.h"
#include "tdg/data_generator.h"
#include "tdg/rule_generator.h"

namespace dq {
namespace {

Schema SmallSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"a0", "a1", "a2", "a3"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"b0", "b1", "b2", "b3"}).ok());
  EXPECT_TRUE(s.AddNominal("C", {"c0", "c1", "c2", "c3"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());
  return s;
}

std::vector<DistributionSpec> UniformSpecs(const Schema& s) {
  return std::vector<DistributionSpec>(s.num_attributes(),
                                       DistributionSpec::Uniform());
}

// --- RuleGenerator -------------------------------------------------------------

TEST(RuleGeneratorTest, GeneratesRequestedCount) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 15;
  cfg.seed = 7;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 15u);
}

TEST(RuleGeneratorTest, OutputIsNaturalRuleSet) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 12;
  cfg.seed = 11;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok());
  NaturalnessChecker checker(&s);
  auto natural = checker.IsNaturalRuleSet(*rules);
  ASSERT_TRUE(natural.ok());
  EXPECT_TRUE(*natural);
}

TEST(RuleGeneratorTest, RulesValidateAgainstSchema) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 10;
  cfg.seed = 13;
  cfg.relational_atom_prob = 0.5;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    EXPECT_TRUE(ValidateFormula(r.premise, s).ok());
    EXPECT_TRUE(ValidateFormula(r.consequent, s).ok());
  }
}

TEST(RuleGeneratorTest, RespectsComplexityBudget) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 10;
  cfg.max_premise_atoms = 2;
  cfg.max_consequent_atoms = 1;
  cfg.seed = 17;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    EXPECT_LE(r.premise.CountAtoms(), 2u);
    EXPECT_EQ(r.consequent.CountAtoms(), 1u);
  }
}

TEST(RuleGeneratorTest, DisjointAttributesByDefault) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 10;
  cfg.seed = 19;
  RuleGenerator gen(&s, cfg);
  auto rules = gen.Generate();
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    auto p = r.premise.Attributes();
    auto c = r.consequent.Attributes();
    for (int a : c) {
      EXPECT_EQ(std::find(p.begin(), p.end(), a), p.end());
    }
  }
}

TEST(RuleGeneratorTest, DeterministicForSeed) {
  Schema s = SmallSchema();
  RuleGenConfig cfg;
  cfg.num_rules = 8;
  cfg.seed = 23;
  auto r1 = RuleGenerator(&s, cfg).Generate();
  auto r2 = RuleGenerator(&s, cfg).Generate();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].ToString(s), (*r2)[i].ToString(s));
  }
}

TEST(RuleGeneratorTest, FailsOnSingleAttributeSchema) {
  Schema s;
  ASSERT_TRUE(s.AddNominal("only", {"a", "b"}).ok());
  RuleGenConfig cfg;
  cfg.num_rules = 1;
  RuleGenerator gen(&s, cfg);
  EXPECT_FALSE(gen.Generate().ok());
}

// --- DataGenerator -------------------------------------------------------------

TEST(DataGeneratorTest, GeneratedDataFollowsHandWrittenRules) {
  Schema s = SmallSchema();
  // A = a0 -> B = b1;  C = c2 -> N > 50.
  Rule r1{Formula::MakeAtom(Atom::Prop(0, AtomOp::kEq, Value::Nominal(0))),
          Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Nominal(1)))};
  Rule r2{Formula::MakeAtom(Atom::Prop(2, AtomOp::kEq, Value::Nominal(2))),
          Formula::MakeAtom(Atom::Prop(3, AtomOp::kGt, Value::Numeric(50.0)))};
  DataGenerator gen(&s, UniformSpecs(s), nullptr, {r1, r2});
  DataGenConfig cfg;
  cfg.num_records = 2000;
  cfg.seed = 3;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->table.num_rows(), 2000u);
  EXPECT_EQ(data->unresolved_records, 0u);
  size_t premise_hits = 0;
  for (size_t r = 0; r < data->table.num_rows(); ++r) {
    const Row row = data->table.row(r);
    EXPECT_FALSE(r1.Violates(row));
    EXPECT_FALSE(r2.Violates(row));
    if (row[0].is_nominal() && row[0].nominal_code() == 0) ++premise_hits;
  }
  // The premise fires often enough for the check to be meaningful.
  EXPECT_GT(premise_hits, 300u);
  EXPECT_GT(data->repair_count, 0u);
}

TEST(DataGeneratorTest, RepairsToPointValuesPastHalfDblMax) {
  // A = x -> N = V and A = y -> N = V pin every record's N to V. Past
  // DBL_MAX / 2 a point domain's midpoint used to overflow to inf, so
  // repair gave up and every record kept its violation.
  Schema s;
  ASSERT_TRUE(s.AddNominal("A", {"x", "y"}).ok());
  ASSERT_TRUE(s.AddNumeric("N", 0.0, 1e308).ok());
  const double v = 9.5e307;
  std::vector<Rule> rules;
  for (int32_t a = 0; a < 2; ++a) {
    rules.push_back(
        {Formula::MakeAtom(Atom::Prop(0, AtomOp::kEq, Value::Nominal(a))),
         Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Numeric(v)))});
  }
  DataGenerator gen(&s, UniformSpecs(s), nullptr, rules);
  DataGenConfig cfg;
  cfg.num_records = 200;
  cfg.seed = 1;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->unresolved_records, 0u);
  for (size_t r = 0; r < data->table.num_rows(); ++r) {
    const Row row = data->table.row(r);
    for (const Rule& rule : rules) EXPECT_FALSE(rule.Violates(row));
  }
}

TEST(DataGeneratorTest, GeneratedDataValidatesAgainstSchema) {
  Schema s = SmallSchema();
  DataGenerator gen(&s, UniformSpecs(s), nullptr, {});
  DataGenConfig cfg;
  cfg.num_records = 500;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->table.Validate().ok());
}

TEST(DataGeneratorTest, GeneratedRuleSetIsFollowed) {
  // End-to-end: random natural rules + generation => zero violations.
  Schema s = SmallSchema();
  RuleGenConfig rcfg;
  rcfg.num_rules = 20;
  rcfg.seed = 31;
  auto rules = RuleGenerator(&s, rcfg).Generate();
  ASSERT_TRUE(rules.ok());
  DataGenerator gen(&s, UniformSpecs(s), nullptr, *rules);
  DataGenConfig cfg;
  cfg.num_records = 1500;
  cfg.seed = 37;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok()) << data.status();
  size_t violations = 0;
  for (size_t i = 0; i < data->table.num_rows(); ++i) {
    const Row row = data->table.row(i);
    for (const Rule& r : *rules) {
      if (r.Violates(row)) ++violations;
    }
  }
  EXPECT_EQ(violations, data->unresolved_records);
  EXPECT_LE(data->unresolved_records, 15u);  // rare fallback acceptances
}

TEST(DataGeneratorTest, MultivariateStartDistributionUsed) {
  Schema s = SmallSchema();
  BayesianNetwork net(&s);
  ASSERT_TRUE(net.AddNode(0).ok());
  ASSERT_TRUE(net.AddNode(1, {0}).ok());
  ASSERT_TRUE(net.SetNominalCpt(0, {{1, 1, 1, 1}}).ok());
  // B deterministically mirrors A.
  ASSERT_TRUE(net.SetNominalCpt(1, {{1, 0, 0, 0},
                                    {0, 1, 0, 0},
                                    {0, 0, 1, 0},
                                    {0, 0, 0, 1}})
                  .ok());
  DataGenerator gen(&s, UniformSpecs(s), &net, {});
  DataGenConfig cfg;
  cfg.num_records = 800;
  auto data = gen.Generate(cfg);
  ASSERT_TRUE(data.ok());
  for (size_t r = 0; r < data->table.num_rows(); ++r) {
    const Row row = data->table.row(r);
    ASSERT_TRUE(row[0].is_nominal());
    EXPECT_EQ(row[0].nominal_code(), row[1].nominal_code());
  }
}

TEST(DataGeneratorTest, ValidationCatchesArityMismatch) {
  Schema s = SmallSchema();
  DataGenerator gen(&s, {DistributionSpec::Uniform()}, nullptr, {});
  DataGenConfig cfg;
  cfg.num_records = 10;
  EXPECT_FALSE(gen.Generate(cfg).ok());
}

TEST(DataGeneratorTest, ValidationCatchesUnsatisfiableConsequent) {
  Schema s = SmallSchema();
  Rule bad{Formula::MakeAtom(Atom::Prop(0, AtomOp::kEq, Value::Nominal(0))),
           Formula::And(
               {Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Nominal(0))),
                Formula::MakeAtom(Atom::Prop(1, AtomOp::kEq, Value::Nominal(1)))})};
  DataGenerator gen(&s, UniformSpecs(s), nullptr, {bad});
  DataGenConfig cfg;
  cfg.num_records = 10;
  auto data = gen.Generate(cfg);
  EXPECT_FALSE(data.ok());
}

TEST(DataGeneratorTest, DeterministicForSeed) {
  Schema s = SmallSchema();
  RuleGenConfig rcfg;
  rcfg.num_rules = 5;
  rcfg.seed = 41;
  auto rules = RuleGenerator(&s, rcfg).Generate();
  ASSERT_TRUE(rules.ok());
  DataGenConfig cfg;
  cfg.num_records = 200;
  cfg.seed = 43;
  auto d1 = DataGenerator(&s, UniformSpecs(s), nullptr, *rules).Generate(cfg);
  auto d2 = DataGenerator(&s, UniformSpecs(s), nullptr, *rules).Generate(cfg);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ASSERT_EQ(d1->table.num_rows(), d2->table.num_rows());
  for (size_t r = 0; r < d1->table.num_rows(); ++r) {
    for (size_t a = 0; a < s.num_attributes(); ++a) {
      EXPECT_TRUE(d1->table.cell(r, a).StrictEquals(d2->table.cell(r, a)));
    }
  }
}

// --- Base configuration helpers (sec. 6.1) ---------------------------------------

TEST(BaseConfigTest, SchemaMatchesPaperDescription) {
  Schema s = MakeBaseSchema();
  ASSERT_EQ(s.num_attributes(), 8u);
  int nominal = 0, date = 0, numeric = 0;
  for (const AttributeDef& a : s.attributes()) {
    switch (a.type) {
      case DataType::kNominal:
        ++nominal;
        break;
      case DataType::kDate:
        ++date;
        break;
      case DataType::kNumeric:
        ++numeric;
        break;
    }
  }
  EXPECT_EQ(nominal, 6);  // "6 nominal attributes with different domain sizes"
  EXPECT_EQ(date, 1);
  EXPECT_EQ(numeric, 1);
  // Different domain sizes.
  std::set<size_t> sizes;
  for (const AttributeDef& a : s.attributes()) {
    if (a.type == DataType::kNominal) sizes.insert(a.categories.size());
  }
  EXPECT_EQ(sizes.size(), 6u);
}

TEST(BaseConfigTest, DistributionsValidate) {
  Schema s = MakeBaseSchema();
  auto specs = MakeBaseDistributions(s, 1);
  ASSERT_EQ(specs.size(), s.num_attributes());
  for (size_t a = 0; a < specs.size(); ++a) {
    EXPECT_TRUE(ValidateDistribution(specs[a], s.attribute(a)).ok()) << a;
  }
}

TEST(BaseConfigTest, BayesNetValidates) {
  Schema s = MakeBaseSchema();
  auto net = MakeBaseBayesNet(&s, 1);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_TRUE((*net)->Validate().ok());
  EXPECT_EQ((*net)->covered_attributes().size(), 3u);
}

}  // namespace
}  // namespace dq
