// Tests for the textual TDG-rule parser (expert-written dependencies,
// sec. 3.2).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "logic/rule_parser.h"
#include "mutate.h"
#include "table/date.h"

namespace dq {
namespace {

Schema ParserSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("BRV", {"401", "404", "501"}).ok());
  EXPECT_TRUE(s.AddNominal("GBM", {"901", "902", "911"}).ok());
  EXPECT_TRUE(s.AddNominal("KBM", {"01", "02"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNumeric("M", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddDate("D", DaysFromCivil({1990, 1, 1}),
                        DaysFromCivil({2003, 12, 31}))
                  .ok());
  return s;
}

TEST(RuleParserTest, PaperHeadlineRule) {
  Schema s = ParserSchema();
  auto rule = ParseRule(s, "BRV = 404 -> GBM = 901");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->ToString(s), "BRV = 404 -> GBM = 901");
  Row row(6);
  row[0] = Value::Nominal(1);  // 404
  row[1] = Value::Nominal(2);  // 911 -- violates
  EXPECT_TRUE(rule->Violates(row));
  row[1] = Value::Nominal(0);  // 901
  EXPECT_FALSE(rule->Violates(row));
}

TEST(RuleParserTest, ConjunctivePremise) {
  Schema s = ParserSchema();
  auto rule = ParseRule(s, "KBM = 01 AND GBM = 901 -> BRV = 501");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->premise.CountAtoms(), 2u);
  EXPECT_EQ(rule->premise.kind(), Formula::Kind::kAnd);
}

TEST(RuleParserTest, PrecedenceAndParentheses) {
  Schema s = ParserSchema();
  // AND binds tighter than OR.
  auto f = ParseFormula(s, "BRV = 401 OR BRV = 404 AND GBM = 901");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_EQ(f->kind(), Formula::Kind::kOr);
  ASSERT_EQ(f->children().size(), 2u);
  EXPECT_EQ(f->children()[1].kind(), Formula::Kind::kAnd);

  auto g = ParseFormula(s, "(BRV = 401 OR BRV = 404) AND GBM = 901");
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->kind(), Formula::Kind::kAnd);
  EXPECT_EQ(g->children()[0].kind(), Formula::Kind::kOr);
}

TEST(RuleParserTest, NumericDateAndNullAtoms) {
  Schema s = ParserSchema();
  auto f = ParseFormula(
      s, "N < 5.5 AND M > 50 AND D > 1999-12-31 AND KBM isnotnull");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->CountAtoms(), 4u);
  Row row(6);
  row[3] = Value::Numeric(2.0);
  row[4] = Value::Numeric(80.0);
  row[5] = Value::Date(DaysFromCivil({2001, 5, 5}));
  row[2] = Value::Nominal(0);
  EXPECT_TRUE(f->Evaluate(row));
  row[2] = Value::Null();
  EXPECT_FALSE(f->Evaluate(row));
}

TEST(RuleParserTest, RelationalAtoms) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "N < M");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_TRUE(f->is_atom());
  EXPECT_TRUE(f->atom().rhs_is_attr);
  EXPECT_EQ(f->atom().rhs_attr, 4);

  // Same-category-list nominal equality.
  auto g = ParseFormula(s, "N != M");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->atom().op, AtomOp::kNeq);
}

TEST(RuleParserTest, QuotedOperandForcesConstant) {
  Schema s;
  // A category spelled like an attribute name.
  ASSERT_TRUE(s.AddNominal("A", {"B", "x"}).ok());
  ASSERT_TRUE(s.AddNominal("B", {"B", "x"}).ok());
  auto relational = ParseFormula(s, "A = B");
  ASSERT_TRUE(relational.ok());
  EXPECT_TRUE(relational->atom().rhs_is_attr);
  auto constant = ParseFormula(s, "A = 'B'");
  ASSERT_TRUE(constant.ok());
  EXPECT_FALSE(constant->atom().rhs_is_attr);
  EXPECT_EQ(constant->atom().rhs_value.nominal_code(), 0);
}

TEST(RuleParserTest, KeywordsAreCaseInsensitive) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "BRV = 401 and GBM = 901 or KBM IsNull");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->kind(), Formula::Kind::kOr);
}

TEST(RuleParserTest, ErrorsCarryOffsets) {
  Schema s = ParserSchema();
  auto missing_arrow = ParseRule(s, "BRV = 404 GBM = 901");
  ASSERT_FALSE(missing_arrow.ok());
  EXPECT_NE(missing_arrow.status().message().find("expected '->'"),
            std::string::npos);

  auto unknown_attr = ParseFormula(s, "NOPE = 1");
  ASSERT_FALSE(unknown_attr.ok());
  EXPECT_NE(unknown_attr.status().message().find("unknown attribute"),
            std::string::npos);

  auto bad_value = ParseFormula(s, "BRV = 999");
  ASSERT_FALSE(bad_value.ok());

  auto ordered_on_nominal = ParseFormula(s, "BRV < 404");
  ASSERT_FALSE(ordered_on_nominal.ok());

  auto unbalanced = ParseFormula(s, "(BRV = 404");
  ASSERT_FALSE(unbalanced.ok());
  EXPECT_NE(unbalanced.status().message().find("expected ')'"),
            std::string::npos);

  auto unterminated = ParseFormula(s, "BRV = '404");
  ASSERT_FALSE(unterminated.ok());

  auto trailing = ParseFormula(s, "BRV = 404 )");
  ASSERT_FALSE(trailing.ok());
}

TEST(RuleParserTest, MixedTypeRelationalRejected) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "N = BRV");
  EXPECT_FALSE(f.ok());
}

TEST(RuleParserTest, RoundTripThroughToString) {
  // Parsing the printed form of a parsed formula yields the same
  // evaluation behaviour.
  Schema s = ParserSchema();
  const char* inputs[] = {
      "BRV = 404 -> GBM = 901",
      "(N < 20 OR N > 80) AND BRV != 401 -> KBM = 02",
      "D > 2000-01-01 AND KBM isnotnull -> M > 10",
  };
  for (const char* input : inputs) {
    auto rule = ParseRule(s, input);
    ASSERT_TRUE(rule.ok()) << input << ": " << rule.status();
    auto reparsed = ParseRule(s, rule->ToString(s));
    ASSERT_TRUE(reparsed.ok()) << rule->ToString(s);
    EXPECT_EQ(rule->ToString(s), reparsed->ToString(s));
  }
}

// Expects ParseRuleDetailed to fail on `text` and returns the error.
ParseError DetailedError(const Schema& s, const std::string& text,
                         size_t line = 1) {
  ParsedRule parsed;
  ParseError error;
  EXPECT_FALSE(ParseRuleDetailed(s, text, line, &parsed, &error)) << text;
  return error;
}

TEST(RuleParserTest, DetailedSyntaxErrorLocations) {
  Schema s = ParserSchema();

  ParseError missing_arrow = DetailedError(s, "BRV = 404 GBM = 901");
  EXPECT_EQ(missing_arrow.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(missing_arrow.loc.line, 1u);
  EXPECT_EQ(missing_arrow.loc.column, 11u);  // the stray 'GBM'
  EXPECT_EQ(missing_arrow.token, "GBM");
  EXPECT_NE(missing_arrow.message.find("expected '->'"), std::string::npos);

  ParseError unbalanced = DetailedError(s, "(BRV = 404 -> GBM = 901");
  EXPECT_EQ(unbalanced.kind, ParseError::Kind::kSyntax);
  EXPECT_NE(unbalanced.message.find("expected ')'"), std::string::npos);

  ParseError unterminated = DetailedError(s, "BRV = '404 -> GBM = 901");
  EXPECT_EQ(unterminated.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(unterminated.loc.column, 7u);  // where the quote opened

  ParseError trailing = DetailedError(s, "BRV = 404 -> GBM = 901 )");
  EXPECT_EQ(trailing.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(trailing.loc.column, 24u);
  EXPECT_EQ(trailing.token, ")");

  ParseError empty_premise = DetailedError(s, "-> GBM = 901");
  EXPECT_EQ(empty_premise.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(empty_premise.loc.column, 1u);
}

TEST(RuleParserTest, DetailedSemanticErrorKinds) {
  Schema s = ParserSchema();

  ParseError unknown = DetailedError(s, "NOPE = 1 -> BRV = 404", 7);
  EXPECT_EQ(unknown.kind, ParseError::Kind::kUnknownAttribute);
  EXPECT_EQ(unknown.loc.line, 7u);  // caller-provided line number sticks
  EXPECT_EQ(unknown.loc.column, 1u);
  EXPECT_EQ(unknown.token, "NOPE");

  ParseError bad_value = DetailedError(s, "BRV = 404 -> GBM = 999");
  EXPECT_EQ(bad_value.kind, ParseError::Kind::kBadConstant);
  EXPECT_EQ(bad_value.loc.column, 20u);  // the offending constant itself
  EXPECT_EQ(bad_value.token, "999");

  ParseError ordered_nominal = DetailedError(s, "BRV < 404 -> GBM = 901");
  EXPECT_EQ(ordered_nominal.kind, ParseError::Kind::kTypeMismatch);
  EXPECT_EQ(ordered_nominal.loc.column, 7u);

  ParseError mixed_relational = DetailedError(s, "N = BRV -> GBM = 901");
  EXPECT_EQ(mixed_relational.kind, ParseError::Kind::kTypeMismatch);

  ParseError bad_number = DetailedError(s, "N < abc -> GBM = 901");
  EXPECT_EQ(bad_number.kind, ParseError::Kind::kBadConstant);

  ParseError bad_date = DetailedError(s, "D > 1999-13-99 -> GBM = 901");
  EXPECT_EQ(bad_date.kind, ParseError::Kind::kBadConstant);
}

TEST(RuleParserTest, DetailedErrorRendering) {
  Schema s = ParserSchema();
  ParseError error = DetailedError(s, "NOPE = 1 -> BRV = 404", 3);
  const std::string rendered = error.Render();
  EXPECT_NE(rendered.find("line 3"), std::string::npos);
  EXPECT_NE(rendered.find("column 1"), std::string::npos);
  EXPECT_NE(rendered.find("'NOPE'"), std::string::npos);
  EXPECT_FALSE(error.ToStatus().ok());
  EXPECT_NE(error.ToStatus().message().find("NOPE"), std::string::npos);
}

TEST(RuleParserTest, DetailedParseRecordsAtomLocations) {
  Schema s = ParserSchema();
  ParsedRule parsed;
  ParseError error;
  ASSERT_TRUE(ParseRuleDetailed(s, "BRV = 404 AND KBM = 01 -> GBM = 901", 5,
                                &parsed, &error))
      << error.Render();
  EXPECT_EQ(parsed.loc.line, 5u);
  EXPECT_EQ(parsed.loc.column, 1u);
  ASSERT_EQ(parsed.premise_atom_locs.size(), 2u);
  EXPECT_EQ(parsed.premise_atom_locs[0].column, 1u);   // BRV
  EXPECT_EQ(parsed.premise_atom_locs[1].column, 15u);  // KBM
  ASSERT_EQ(parsed.consequent_atom_locs.size(), 1u);
  EXPECT_EQ(parsed.consequent_atom_locs[0].column, 27u);  // GBM
  EXPECT_EQ(parsed.text, "BRV = 404 AND KBM = 01 -> GBM = 901");
}

TEST(RuleParserTest, LenientFileParseCollectsAllErrors) {
  Schema s = ParserSchema();
  std::istringstream in(
      "# comment\n"
      "BRV = 404 -> GBM = 901\n"
      "(BRV = 404 -> GBM = 901\n"
      "NOPE = 1 -> BRV = 404\n"
      "KBM = 01 -> BRV = 501\n");
  RuleFileParse parse = ParseRuleFileLenient(s, &in);
  ASSERT_EQ(parse.rules.size(), 2u);
  EXPECT_EQ(parse.rules[0].loc.line, 2u);
  EXPECT_EQ(parse.rules[1].loc.line, 5u);
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_EQ(parse.errors[0].loc.line, 3u);
  EXPECT_EQ(parse.errors[0].kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(parse.errors[1].loc.line, 4u);
  EXPECT_EQ(parse.errors[1].kind, ParseError::Kind::kUnknownAttribute);
}

TEST(RuleParserTest, RuleFileWithCommentsAndErrors) {
  Schema s = ParserSchema();
  std::istringstream good(
      "# expert dependencies\n"
      "BRV = 404 -> GBM = 901\n"
      "\n"
      "KBM = 01 AND GBM = 901 -> BRV = 501\n");
  auto rules = ParseRuleFile(s, &good);
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 2u);

  std::istringstream bad("BRV = 404 -> GBM = 901\nbroken line\n");
  auto failed = ParseRuleFile(s, &bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 2"), std::string::npos);
}

TEST(RuleParserTest, MutatedRuleFileRendersRulesThatParseBack) {
  // Every rule the lenient parser reads from a mutant of a rule file
  // renders to source text that ParseRule reads back into a rule with the
  // same rendering; every other line is an error with a message.
  Schema s = ParserSchema();
  const std::string file =
      "# expert dependencies, one of every atom kind\n"
      "BRV = 404 -> GBM = 901\n"
      "KBM = 01 AND GBM = 901 -> BRV = 501\n"
      "(N < 5 OR N > 95) AND BRV != 401 -> KBM isnotnull\n"
      "D > 2000-01-01 AND KBM isnull -> M > 10.5\n"
      "N < M OR D = 1995-06-30 -> GBM = '911'\n"
      "((N > 0.001 AND M != 42) OR KBM = '01') -> BRV = '404'\n"
      "\n"
      "M = N AND (BRV isnull OR GBM != 902) -> D < 2003-12-31\n";
  using std::string_view_literals::operator""sv;
  const std::vector<std::string_view> tokens = {
      "AND"sv,  "or"sv,   "->"sv,          "("sv,          ")"sv,
      "isnull"sv, "IsNotNull"sv, "="sv,    "!="sv,         "<"sv,
      ">"sv,    "N"sv,    "D"sv,           "BRV"sv,        "'404'"sv,
      "''"sv,   "'"sv,    "'a b'"sv,       "-0"sv,         "1e308"sv,
      "nan"sv,  "4.9e-324"sv, "2003-06-30"sv, "-001-12-31"sv, "#"sv,
  };
  Rng rng(28);
  constexpr int kCases = 20000;
  size_t rules = 0;
  size_t errors = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = file;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) {
      Mutate(&rng, &text, tokens, " \n()"sv);
    }
    std::istringstream in(text);
    const RuleFileParse parse = ParseRuleFileLenient(s, &in);
    for (const ParseError& error : parse.errors) {
      ASSERT_FALSE(error.message.empty()) << "case " << c;
    }
    for (const ParsedRule& parsed : parse.rules) {
      const std::string source = RenderRuleSource(parsed.rule, s);
      auto back = ParseRule(s, source);
      ASSERT_TRUE(back.ok()) << "case " << c << ": " << parsed.text
                             << " renders as " << source << ": "
                             << back.status();
      ASSERT_EQ(RenderRuleSource(*back, s), source)
          << "case " << c << ": " << parsed.text;
    }
    rules += parse.rules.size();
    errors += parse.errors.size();
  }
  // Both outcomes occur.
  EXPECT_GT(rules, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace dq
