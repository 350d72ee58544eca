// Decision tree -> rule set transformation (sec. 5.4).
//
// "It is straightforward to represent an induced decision tree as a set of
// rules from the root to its leaves. If the dependency of a class attribute
// on its base attributes is very punctiform, it is often useful to reduce
// this set to the rules that do not have an expected error confidence of
// zero and thereby cannot contribute to an error detection." The surviving
// rules across all attribute models form the exported structure model — "a
// set of integrity constraints that must hold with a given probability".

#ifndef DQ_AUDIT_RULE_EXPORT_H_
#define DQ_AUDIT_RULE_EXPORT_H_

#include <string>
#include <vector>

#include "audit/auditor.h"
#include "lint/suggest.h"
#include "mining/assoc_rules.h"
#include "mining/c45.h"

namespace dq {

/// \brief One exported structure rule: path conditions -> majority class.
struct StructureRule {
  int class_attr = -1;
  std::vector<SplitCondition> conditions;
  int majority_class = -1;
  /// Training instances the rule is based on ("It was based on 16118
  /// instances", sec. 6.2).
  double support = 0.0;
  /// Share of the support agreeing with the majority class.
  double purity = 0.0;
  /// Expected error confidence of the originating leaf (Def. 9).
  double expected_error_confidence = 0.0;

  std::string ToString(const Schema& schema, const ClassEncoder& encoder) const;
};

/// \brief Extracts the rule set of one attribute model: a rule per leaf of
/// positive weight of its compiled tree, in path order (none for non-tree
/// inducers). Def. 9 is evaluated at `config`'s level and minimal error
/// confidence; with `drop_useless`, rules whose value is zero go (sec. 5.4).
std::vector<StructureRule> ExtractRules(const AttributeModel& model,
                                        const AuditorConfig& config,
                                        bool drop_useless = true);

/// \brief Extracts and concatenates the rule sets of every model in an
/// AuditModel (the full structure model).
std::vector<StructureRule> ExtractStructureModel(const AuditModel& model,
                                                 const AuditorConfig& config,
                                                 bool drop_useless = true);

/// \brief Renders a structure model for human review, most-supported rules
/// first.
std::string RenderStructureModel(const AuditModel& model, const Schema& schema,
                                 const AuditorConfig& config,
                                 size_t max_rules = 50);

// --- dqsuggest candidate extraction --------------------------------------
//
// Induced models become *parseable* TDG-rule candidates: C4.5 path
// conditions turn into conjunctions of atoms (`A <= c` is spelled
// `(A < c OR A = c)` — the grammar has no <=; date thresholds floor to
// whole days), discretized class consequents turn into bin-interval
// formulas over the encoder's cut points, and association rules map to
// equality atoms on both sides. Conditions that are vacuous for
// schema-valid data (a threshold beyond the domain bound, mined from
// polluted training values) are dropped; rules whose premise or consequent
// is unsatisfiable inside the domain fail to convert and are skipped.
// Annotations follow the standard mining measures: confidence =
// P(consequent | premise), support = fraction of rows matching premise and
// consequent, coverage = fraction matching the premise.

/// \brief Converts one structure rule into a candidate. `total_rows` is
/// the training row count (for support/coverage fractions); `source` is
/// the provenance tag embedded in diagnostics. Fails when the rule cannot
/// be expressed inside the schema domain (empty premise, vacuous bin).
Result<CandidateRule> StructureRuleToCandidate(const StructureRule& rule,
                                               const ClassEncoder& encoder,
                                               const Schema& schema,
                                               double total_rows,
                                               const std::string& source);

/// \brief Extracts candidates from every C4.5 model of `model`
/// (inconvertible rules are skipped). Provenance: "c45:<attr>:path#<k>".
std::vector<CandidateRule> ExtractCandidateRules(const AuditModel& model,
                                                 const Schema& schema,
                                                 const AuditorConfig& config,
                                                 double total_rows);

/// \brief Converts mined association rules into candidates. Provenance:
/// "assoc#<k>".
std::vector<CandidateRule> AssociationCandidates(
    const std::vector<AssociationRule>& rules, const Schema& schema,
    double total_rows);

/// \brief Renders candidates as an annotated rule file that dqlint,
/// dqaudit --rules-file and dqgen accept unchanged: each rule line is
/// preceded by a "# @rule conf=... support=... coverage=... source=..."
/// metadata comment. `header` becomes a leading comment block (may be
/// empty).
std::string RenderSuggestedRuleFile(const std::vector<CandidateRule>& rules,
                                    const Schema& schema,
                                    const std::string& header);

}  // namespace dq

#endif  // DQ_AUDIT_RULE_EXPORT_H_
