#include "lint/lint.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/input_file.h"
#include "lint/rule_abstraction.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dq {

namespace {

// Registry indices; keep in sync with kChecks below.
enum CheckIndex {
  kSyntaxError = 0,
  kUnknownAttribute,
  kTypeMismatch,
  kBadConstant,
  kImpossibleAtom,
  kUnsatPremise,
  kUnsatConsequent,
  kContradictoryRule,
  kTautologicalConclusion,
  kSelfEvidentRule,
  kContradictoryPair,
  kDuplicateRule,
  kSubsumedRule,
  kConflictingOverlap,
  kCheckSkipped,
  kDeadDisjunct,
  kUnreachableThreshold,
  kMinedExpertContradiction,
  kRedundantInCover,
  kLowSupportCandidate,
  kIntervalWidening,
  kLowConfidenceCandidate,
  kDuplicateCandidate,
  kCandidateBudgetExceeded,
  kExpertImpliedCandidate,
};

const std::vector<LintCheckInfo>& Checks() {
  static const std::vector<LintCheckInfo> kChecks = {
      {"DQ001", "syntax-error", LintSeverity::kError,
       "line does not parse as a TDG-rule"},
      {"DQ002", "unknown-attribute", LintSeverity::kError,
       "name does not resolve against the schema"},
      {"DQ003", "type-mismatch", LintSeverity::kError,
       "operator and operand types are incompatible"},
      {"DQ004", "bad-constant", LintSeverity::kError,
       "constant does not parse or lies outside the attribute domain"},
      {"DQ005", "impossible-atom", LintSeverity::kWarning,
       "comparison can never hold given the attribute's domain range"},
      {"DQ010", "unsat-premise", LintSeverity::kError,
       "premise is unsatisfiable; the rule can never fire"},
      {"DQ011", "unsat-consequent", LintSeverity::kError,
       "consequent is unsatisfiable; every firing row violates the rule"},
      {"DQ012", "contradictory-rule", LintSeverity::kError,
       "premise and consequent are jointly unsatisfiable"},
      {"DQ013", "tautological-conclusion", LintSeverity::kWarning,
       "consequent always holds; the rule constrains nothing"},
      {"DQ014", "self-evident-rule", LintSeverity::kWarning,
       "premise already implies the consequent"},
      {"DQ020", "contradictory-pair", LintSeverity::kError,
       "one premise implies the other but the conclusions conflict"},
      {"DQ021", "duplicate-rule", LintSeverity::kWarning,
       "rule is logically equivalent to an earlier rule"},
      {"DQ022", "subsumed-rule", LintSeverity::kWarning,
       "rule is implied by a stronger rule and adds no information"},
      {"DQ023", "conflicting-overlap", LintSeverity::kNote,
       "conclusions conflict where the premises overlap; the pair rules "
       "that region out"},
      {"DQ030", "check-skipped", LintSeverity::kNote,
       "a satisfiability or implication test exhausted its budget"},
      {"DQ031", "dead-disjunct", LintSeverity::kWarning,
       "a branch of the rule's DNF is unsatisfiable and can never fire"},
      {"DQ032", "unreachable-threshold", LintSeverity::kNote,
       "threshold is never reached: sibling conditions in the conjunction "
       "already enforce it"},
      {"DQ033", "mined-expert-contradiction", LintSeverity::kWarning,
       "mined candidate conflicts with the expert rule set or an accepted "
       "higher-ranked candidate"},
      {"DQ034", "redundant-in-cover", LintSeverity::kNote,
       "mined candidate is subsumed by a stronger mined sibling"},
      {"DQ035", "low-support-candidate", LintSeverity::kNote,
       "mined candidate falls below the support floor"},
      {"DQ036", "interval-widening", LintSeverity::kNote,
       "abstract summary lost precision (interval join or widening)"},
      {"DQ037", "low-confidence-candidate", LintSeverity::kNote,
       "mined candidate falls below the confidence floor"},
      {"DQ038", "duplicate-candidate", LintSeverity::kNote,
       "mined candidate is logically equivalent to an earlier candidate"},
      {"DQ039", "candidate-budget-exceeded", LintSeverity::kNote,
       "the --max-rules budget truncated the suggestion list"},
      {"DQ040", "expert-implied-candidate", LintSeverity::kNote,
       "mined candidate is already implied by the expert rule set"},
  };
  return kChecks;
}

const LintCheckInfo& CheckFor(ParseError::Kind kind) {
  switch (kind) {
    case ParseError::Kind::kSyntax:
      return Checks()[kSyntaxError];
    case ParseError::Kind::kUnknownAttribute:
      return Checks()[kUnknownAttribute];
    case ParseError::Kind::kTypeMismatch:
      return Checks()[kTypeMismatch];
    case ParseError::Kind::kBadConstant:
      return Checks()[kBadConstant];
  }
  return Checks()[kSyntaxError];
}

/// Pre-order atom collection; matches the parser's atom-location order.
void CollectAtoms(const Formula& f, std::vector<const Atom*>* out) {
  if (f.is_atom()) {
    out->push_back(&f.atom());
    return;
  }
  for (const Formula& c : f.children()) CollectAtoms(c, out);
}

}  // namespace

namespace {

// Satellite observability: suggestion runs over large mined sets execute
// thousands of sat/implication tests; these counters make the volume (and
// the budget-exhausted fraction) visible in --metrics-out dumps.
void CountCheckRun() { obs::GetCounter("lint.checks_run")->Add(1); }
void CountCheckSkipped(uint64_t n = 1) {
  obs::GetCounter("lint.checks_skipped")->Add(n);
}

}  // namespace

const char* LintSeverityToString(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kNote:
      return "note";
  }
  return "?";
}

const std::vector<LintCheckInfo>& LintChecks() { return Checks(); }

const LintCheckInfo& LintCheckById(const char* id) {
  for (const LintCheckInfo& check : Checks()) {
    if (std::strcmp(check.id, id) == 0) return check;
  }
  std::abort();  // unknown IDs are programming errors, not inputs
}

size_t LintResult::CountSeverity(LintSeverity severity) const {
  size_t n = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

Linter::Linter(const Schema* schema, LintOptions options)
    : schema_(schema), options_(std::move(options)), sat_(schema) {}

bool Linter::Enabled(const LintCheckInfo& check) const {
  return options_.disabled.count(check.id) == 0 &&
         options_.disabled.count(check.name) == 0;
}

void Linter::Emit(const LintCheckInfo& check, SourceLocation loc,
                  std::string message, int rule_index, LintResult* out) const {
  if (!Enabled(check)) return;
  LintDiagnostic d;
  d.check_id = check.id;
  d.check_name = check.name;
  d.severity = check.severity;
  d.loc = loc;
  d.message = std::move(message);
  d.rule_index = rule_index;
  out->diagnostics.push_back(std::move(d));
}

bool Linter::Try(const Result<bool>& result, SourceLocation loc,
                 int rule_index, const char* what, bool fallback,
                 LintResult* out) const {
  if (result.ok()) {
    CountCheckRun();
    return *result;
  }
  CountCheckSkipped();
  Emit(Checks()[kCheckSkipped], loc,
       std::string(what) + " skipped: " + result.status().message(),
       rule_index, out);
  return fallback;
}

void Linter::CheckAtoms(const ParsedRule& rule, int index,
                        LintResult* out) const {
  const bool want_impossible = Enabled(Checks()[kImpossibleAtom]);
  const bool want_threshold = Enabled(Checks()[kUnreachableThreshold]);
  if (!want_impossible && !want_threshold) return;
  const std::pair<const Formula*, const std::vector<SourceLocation>*> sides[] =
      {{&rule.rule.premise, &rule.premise_atom_locs},
       {&rule.rule.consequent, &rule.consequent_atom_locs}};
  for (const auto& [formula, locs] : sides) {
    std::vector<const Atom*> atoms;
    CollectAtoms(*formula, &atoms);
    for (size_t i = 0; i < atoms.size(); ++i) {
      const Atom& atom = *atoms[i];
      if (atom.op == AtomOp::kIsNull || atom.op == AtomOp::kIsNotNull) {
        continue;
      }
      if (!want_impossible) continue;
      CountCheckRun();
      if (!sat_.ConjunctionSatisfiable({atom})) {
        const SourceLocation loc = i < locs->size() ? (*locs)[i] : rule.loc;
        Emit(Checks()[kImpossibleAtom], loc,
             "comparison '" + atom.ToString(*schema_) +
                 "' can never hold given the domain of '" +
                 schema_->attribute(static_cast<size_t>(atom.lhs_attr)).name +
                 "'",
             index, out);
      }
    }
  }
  if (want_threshold) {
    CheckThresholds(rule, index, out);
  }
}

// DQ032: inside a pure conjunction, a threshold that the sibling
// conditions already enforce decides nothing — the boundary is never
// reached. Mined C4.5 path rules produce exactly this shape when an
// ancestor split is looser than a descendant split on the same attribute.
void Linter::CheckThresholds(const ParsedRule& rule, int index,
                             LintResult* out) const {
  const std::pair<const Formula*, const std::vector<SourceLocation>*> sides[] =
      {{&rule.rule.premise, &rule.premise_atom_locs},
       {&rule.rule.consequent, &rule.consequent_atom_locs}};
  for (const auto& [formula, locs] : sides) {
    Result<std::vector<Atom>> conj = formula->AsConjunction();
    if (!conj.ok() || conj->size() < 2) continue;
    for (size_t i = 0; i < conj->size(); ++i) {
      const Atom& atom = (*conj)[i];
      if (atom.rhs_is_attr || atom.rhs_value.is_null()) continue;
      if (atom.op != AtomOp::kLt && atom.op != AtomOp::kGt) continue;
      std::vector<Atom> others;
      others.reserve(conj->size() - 1);
      for (size_t j = 0; j < conj->size(); ++j) {
        if (j != i) others.push_back((*conj)[j]);
      }
      CountCheckRun();
      const Propagation prop = sat_.Propagate(others);
      if (!prop.satisfiable) continue;  // the unsat checks cover this
      const size_t attr_idx = static_cast<size_t>(atom.lhs_attr);
      const DomainRange& before = prop.ranges[attr_idx];
      DomainRange after = before;
      after.ForbidNull();
      if (atom.op == AtomOp::kLt) {
        after.RestrictLt(atom.rhs_value);
      } else {
        after.RestrictGt(atom.rhs_value);
      }
      // Restriction only shrinks; the threshold is dead iff nothing (not
      // even the null permission) was cut away.
      if (after.Covers(before)) {
        const AttributeDef& attr = schema_->attribute(attr_idx);
        const SourceLocation loc = i < locs->size() ? (*locs)[i] : rule.loc;
        Emit(Checks()[kUnreachableThreshold], loc,
             "threshold '" + atom.ToString(*schema_) +
                 "' is never reached: the other conditions already restrict "
                 "'" +
                 attr.name + "' to " + before.ToString(attr),
             index, out);
      }
    }
  }
}

// Abstract interpretation of one rule side: summarizes the formula in the
// per-attribute domain, reporting dead DNF branches (DQ031) and precision
// loss (DQ036). Returns the side's satisfiability (budget exhaustion falls
// back to "satisfiable", mirroring the exact test's fallback, with the
// DQ030 note emitted by the caller-supplied Try pattern inlined here).
bool Linter::CheckAbstract(const ParsedRule& rule, int index,
                           bool premise_side, LintResult* out) const {
  const char* side = premise_side ? "premise" : "consequent";
  const Formula& formula =
      premise_side ? rule.rule.premise : rule.rule.consequent;
  RuleAbstraction::Options abs_options;
  abs_options.max_disjuncts = options_.max_dnf_disjuncts;
  const RuleAbstraction abstraction(&sat_);
  Result<FormulaSummary> summary = abstraction.Summarize(formula, abs_options);
  if (!summary.ok()) {
    CountCheckSkipped();
    Emit(Checks()[kCheckSkipped], rule.loc,
         std::string(side) + " satisfiability test skipped: " +
             summary.status().message(),
         index, out);
    return true;
  }
  CountCheckRun();
  if (!summary->reachable) return false;
  if (!summary->dead_disjuncts.empty()) {
    for (size_t d : summary->dead_disjuncts) {
      Emit(Checks()[kDeadDisjunct], rule.loc,
           "dead branch: disjunct " + std::to_string(d + 1) + " of " +
               std::to_string(summary->num_disjuncts) + " in the " + side +
               " is unsatisfiable and can never fire",
           index, out);
    }
  }
  if (summary->joined_gap || summary->widen_applied) {
    Emit(Checks()[kIntervalWidening], rule.loc,
         std::string("abstract summary of the ") + side +
             (summary->widen_applied
                  ? " was widened to the schema domain bounds"
                  : " covers a gap between disjoint intervals") +
             "; interval precision is reduced for downstream checks",
         index, out);
  }
  return true;
}

void Linter::CheckRule(const ParsedRule& rule, int index,
                       LintResult* out) const {
  CheckAtoms(rule, index, out);

  const size_t budget = options_.max_dnf_disjuncts;
  const bool premise_sat = CheckAbstract(rule, index, /*premise_side=*/true,
                                         out);
  if (!premise_sat) {
    Emit(Checks()[kUnsatPremise], rule.loc,
         "premise is unsatisfiable: the rule can never fire", index, out);
    // Implication against an unsatisfiable premise is vacuous; the
    // remaining rule-level checks would only echo this defect.
    return;
  }

  const bool consequent_sat = CheckAbstract(rule, index,
                                            /*premise_side=*/false, out);
  if (!consequent_sat) {
    Emit(Checks()[kUnsatConsequent], rule.loc,
         "consequent is unsatisfiable: every record matching the premise "
         "violates the rule",
         index, out);
    return;
  }

  const bool joint_sat =
      Try(SatisfiableWithBudget(
              sat_, Formula::And({rule.rule.premise, rule.rule.consequent}),
              budget),
          rule.loc, index, "joint satisfiability test", true, out);
  if (!joint_sat) {
    Emit(Checks()[kContradictoryRule], rule.loc,
         "premise and consequent are jointly unsatisfiable: no record can "
         "comply with the rule",
         index, out);
    return;
  }

  const bool negation_sat =
      Try(SatisfiableWithBudget(sat_, Negate(rule.rule.consequent), budget),
          rule.loc, index, "tautology test", true, out);
  if (!negation_sat) {
    Emit(Checks()[kTautologicalConclusion], rule.loc,
         "consequent holds for every record: the rule constrains nothing",
         index, out);
    return;
  }

  const bool self_evident =
      Try(ImpliesWithBudget(sat_, rule.rule.premise, rule.rule.consequent,
                            budget),
          rule.loc, index, "implication test", false, out);
  if (self_evident) {
    Emit(Checks()[kSelfEvidentRule], rule.loc,
         "premise already implies the consequent: the rule adds no "
         "information",
         index, out);
  }
}

void Linter::CheckPair(const ParsedRule& a, int ia, const ParsedRule& b,
                       int ib, LintResult* out) const {
  const size_t budget = options_.max_dnf_disjuncts;
  auto emit_pair = [&](CheckIndex which, SourceLocation loc, int rule_index,
                       const std::string& message, int other_index,
                       SourceLocation other_loc) {
    if (!Enabled(Checks()[which])) return;
    LintDiagnostic d;
    d.check_id = Checks()[which].id;
    d.check_name = Checks()[which].name;
    d.severity = Checks()[which].severity;
    d.loc = loc;
    d.message = message;
    d.rule_index = rule_index;
    d.other_rule_index = other_index;
    d.other_loc = other_loc;
    out->diagnostics.push_back(std::move(d));
  };

  const bool a_implies_b =
      Try(ImpliesWithBudget(sat_, a.rule.premise, b.rule.premise, budget),
          b.loc, ib, "pairwise implication test", false, out);
  const bool b_implies_a =
      Try(ImpliesWithBudget(sat_, b.rule.premise, a.rule.premise, budget),
          b.loc, ib, "pairwise implication test", false, out);

  const bool premises_joint =
      Try(SatisfiableWithBudget(
              sat_, Formula::And({a.rule.premise, b.rule.premise}), budget),
          b.loc, ib, "pairwise premise satisfiability test", false, out);
  if (premises_joint) {
    const bool all_sat =
        Try(SatisfiableWithBudget(
                sat_,
                Formula::And({a.rule.premise, b.rule.premise,
                              a.rule.consequent, b.rule.consequent}),
                budget),
            b.loc, ib, "pairwise contradiction test", true, out);
    if (!all_sat) {
      if (a_implies_b || b_implies_a) {
        // Definition 6: the stronger premise forces both consequents, and
        // they conflict — every record it matches violates one rule.
        emit_pair(kContradictoryPair, b.loc, ib,
                  "conclusions conflict with the rule at " + a.loc.ToString() +
                      ": no record matching the stronger premise can comply "
                      "with both rules",
                  ia, a.loc);
      } else {
        // The premises merely overlap; the pair jointly rules the overlap
        // region out of compliant data (normal in rule chains).
        emit_pair(kConflictingOverlap, b.loc, ib,
                  "conclusions conflict with the rule at " + a.loc.ToString() +
                      " where the premises overlap; compliant data cannot "
                      "contain records matching both premises",
                  ia, a.loc);
      }
      return;
    }
  }

  if (a_implies_b && b_implies_a) {
    const bool ac_implies_bc = Try(
        ImpliesWithBudget(sat_, a.rule.consequent, b.rule.consequent, budget),
        b.loc, ib, "pairwise implication test", false, out);
    const bool bc_implies_ac = Try(
        ImpliesWithBudget(sat_, b.rule.consequent, a.rule.consequent, budget),
        b.loc, ib, "pairwise implication test", false, out);
    if (ac_implies_bc && bc_implies_ac) {
      emit_pair(kDuplicateRule, b.loc, ib,
                "rule is logically equivalent to the rule at " +
                    a.loc.ToString(),
                ia, a.loc);
      return;
    }
  }

  // Rule Y is subsumed by rule X when Y's premise implies X's premise and
  // X's consequent implies Y's consequent: whenever Y fires, X fires and
  // already demands at least as much.
  if (b_implies_a) {
    const bool stronger = Try(
        ImpliesWithBudget(sat_, a.rule.consequent, b.rule.consequent, budget),
        b.loc, ib, "pairwise implication test", false, out);
    if (stronger) {
      emit_pair(kSubsumedRule, b.loc, ib,
                "rule is subsumed by the stronger rule at " + a.loc.ToString(),
                ia, a.loc);
      return;
    }
  }
  if (a_implies_b) {
    const bool stronger = Try(
        ImpliesWithBudget(sat_, b.rule.consequent, a.rule.consequent, budget),
        a.loc, ia, "pairwise implication test", false, out);
    if (stronger) {
      emit_pair(kSubsumedRule, a.loc, ia,
                "rule is subsumed by the stronger rule at " + b.loc.ToString(),
                ib, b.loc);
    }
  }
}

LintResult Linter::LintParse(const RuleFileParse& parse) const {
  LintResult out;
  out.rules_checked = parse.rules.size();

  for (const ParseError& error : parse.errors) {
    Emit(CheckFor(error.kind), error.loc,
         error.message + " (near '" + error.token + "')", -1, &out);
  }

  // Per-rule checks; rules with error-level findings are excluded from the
  // pairwise phase (their implications are degenerate).
  std::vector<bool> clean(parse.rules.size(), true);
  for (size_t i = 0; i < parse.rules.size(); ++i) {
    const size_t before = out.diagnostics.size();
    CheckRule(parse.rules[i], static_cast<int>(i), &out);
    for (size_t d = before; d < out.diagnostics.size(); ++d) {
      if (out.diagnostics[d].severity == LintSeverity::kError) {
        clean[i] = false;
      }
    }
  }

  if (parse.rules.size() > options_.max_pairwise_rules) {
    const size_t n = parse.rules.size();
    CountCheckSkipped(static_cast<uint64_t>(n) * (n - 1) / 2);
    Emit(Checks()[kCheckSkipped], SourceLocation{1, 1},
         "pairwise checks skipped: " + std::to_string(parse.rules.size()) +
             " rules exceed the limit of " +
             std::to_string(options_.max_pairwise_rules),
         -1, &out);
  } else {
    for (size_t i = 0; i < parse.rules.size(); ++i) {
      if (!clean[i]) continue;
      for (size_t j = i + 1; j < parse.rules.size(); ++j) {
        if (!clean[j]) continue;
        CheckPair(parse.rules[i], static_cast<int>(i), parse.rules[j],
                  static_cast<int>(j), &out);
      }
    }
  }

  std::stable_sort(out.diagnostics.begin(), out.diagnostics.end(),
                   [](const LintDiagnostic& x, const LintDiagnostic& y) {
                     if (x.loc.line != y.loc.line) return x.loc.line < y.loc.line;
                     if (x.loc.column != y.loc.column) {
                       return x.loc.column < y.loc.column;
                     }
                     return x.check_id < y.check_id;
                   });
  return out;
}

LintResult Linter::LintFile(std::istream* in) const {
  return LintParse(ParseRuleFileLenient(*schema_, in));
}

Result<LintResult> Linter::LintFileAt(const std::string& path) const {
  DQ_ASSIGN_OR_RETURN(std::ifstream f, OpenInputFile(path));
  return LintFile(&f);
}

LintResult Linter::LintRules(const std::vector<Rule>& rules) const {
  RuleFileParse parse;
  parse.rules.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    ParsedRule p;
    p.rule = rules[i];
    p.loc = SourceLocation{i + 1, 1};
    p.text = rules[i].ToString(*schema_);
    parse.rules.push_back(std::move(p));
  }
  return LintParse(parse);
}

std::string RenderLintText(const LintResult& result,
                           const std::string& source_name) {
  std::ostringstream out;
  for (const LintDiagnostic& d : result.diagnostics) {
    out << source_name << ':' << d.loc.line << ':' << d.loc.column << ": "
        << LintSeverityToString(d.severity) << ": " << d.message << " ["
        << d.check_id << ' ' << d.check_name << "]\n";
  }
  out << source_name << ": " << result.rules_checked << " rules checked, "
      << result.NumErrors() << " errors, " << result.NumWarnings()
      << " warnings, " << result.NumNotes() << " notes\n";
  return out.str();
}

std::string RenderLintJson(const LintResult& result,
                           const std::string& source_name) {
  std::ostringstream out;
  out << "{\n"
      << "  \"source\": \"" << obs::JsonEscape(source_name) << "\",\n"
      << "  \"rules_checked\": " << result.rules_checked << ",\n"
      << "  \"errors\": " << result.NumErrors() << ",\n"
      << "  \"warnings\": " << result.NumWarnings() << ",\n"
      << "  \"notes\": " << result.NumNotes() << ",\n"
      << "  \"diagnostics\": [";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const LintDiagnostic& d = result.diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"id\": \"" << d.check_id << "\", \"name\": \""
        << d.check_name << "\", \"severity\": \""
        << LintSeverityToString(d.severity) << "\", \"line\": " << d.loc.line
        << ", \"column\": " << d.loc.column << ", \"rule\": " << d.rule_index;
    if (d.other_rule_index >= 0) {
      out << ", \"related_rule\": " << d.other_rule_index
          << ", \"related_line\": " << d.other_loc.line
          << ", \"related_column\": " << d.other_loc.column;
    }
    out << ", \"message\": \"" << obs::JsonEscape(d.message) << "\"}";
  }
  out << (result.diagnostics.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

}  // namespace dq
