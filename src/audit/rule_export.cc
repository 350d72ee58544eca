#include "audit/rule_export.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "logic/rule_parser.h"

namespace dq {

std::string StructureRule::ToString(const Schema& schema,
                                    const ClassEncoder& encoder) const {
  std::string out;
  if (conditions.empty()) {
    out += "TRUE";
  } else {
    for (size_t i = 0; i < conditions.size(); ++i) {
      if (i > 0) out += " AND ";
      out += conditions[i].ToString(schema);
    }
  }
  out += " -> ";
  out += schema.attribute(static_cast<size_t>(class_attr)).name;
  out += " = ";
  out += encoder.Label(majority_class, schema);
  out += "  [support " + FormatDouble(support, 1) + ", purity " +
         FormatDouble(purity * 100.0, 2) + "%, expErrorConf " +
         FormatDouble(expected_error_confidence, 4) + "]";
  return out;
}

std::vector<StructureRule> ExtractRules(const AttributeModel& model,
                                        const AuditorConfig& config,
                                        bool drop_useless) {
  std::vector<StructureRule> rules;
  const CompiledTree& tree = model.tree;
  if (tree.nodes().empty()) return rules;
  // Depth first in branch order, so the rules come in the order of the
  // tree's root-to-leaf paths.
  std::vector<SplitCondition> path;
  const auto visit = [&](const auto& self, uint32_t index) -> void {
    const CompiledTree::Node& node = tree.nodes()[index];
    if (node.is_leaf()) {
      if (node.weight <= 0.0) return;
      const double* counts = tree.leaf_counts(node.first);
      const double exp_conf = LeafExpectedErrorConf(
          counts, static_cast<size_t>(tree.num_classes()), node.weight,
          node.majority, config.confidence_level,
          config.min_error_confidence);
      if (drop_useless && exp_conf <= 0.0) return;
      StructureRule rule;
      rule.class_attr = model.class_attr;
      rule.conditions = path;
      rule.majority_class = node.majority;
      rule.support = node.weight;
      rule.purity = counts[static_cast<size_t>(node.majority)] / node.weight;
      rule.expected_error_confidence = exp_conf;
      rules.push_back(std::move(rule));
      return;
    }
    for (uint32_t b = 0; b < node.children; ++b) {
      SplitCondition& cond = path.emplace_back();
      cond.attr = node.attr;
      if (node.ordered) {
        cond.kind = b == 0 ? SplitCondition::Kind::kLessEq
                           : SplitCondition::Kind::kGreater;
        cond.threshold = node.threshold;
      } else {
        cond.category = static_cast<int32_t>(b);
      }
      self(self, node.first + b);
      path.pop_back();
    }
  };
  visit(visit, 0);
  return rules;
}

std::vector<StructureRule> ExtractStructureModel(const AuditModel& model,
                                                 const AuditorConfig& config,
                                                 bool drop_useless) {
  std::vector<StructureRule> all;
  for (const AttributeModel& am : model.models()) {
    std::vector<StructureRule> rules = ExtractRules(am, config, drop_useless);
    all.insert(all.end(), std::make_move_iterator(rules.begin()),
               std::make_move_iterator(rules.end()));
  }
  return all;
}

namespace {

/// Typed constant on an ordered attribute's axis; dates floor to whole
/// days (the axis is integral, so v <= 3.5 and v <= 3 coincide).
Value OrderedConstant(const AttributeDef& attr, double x) {
  if (attr.type == DataType::kDate) {
    return Value::Date(static_cast<int32_t>(std::floor(x)));
  }
  return Value::Numeric(x);
}

/// Outcome of expressing one threshold condition inside the domain.
enum class BoundKind {
  kAtom,        ///< a real constraint
  kAlwaysTrue,  ///< vacuous for schema-valid data — drop the atom
  kNeverTrue,   ///< unsatisfiable inside the domain — the rule is void
};

/// "attr <= x" clamped to the schema domain. The grammar has no <=, so a
/// real bound renders as (attr < c OR attr = c).
BoundKind UpperBound(int attr_idx, const AttributeDef& attr, double x,
                     Formula* out) {
  const Value c = OrderedConstant(attr, x);
  const double axis = c.OrderedValue();
  const double lo = attr.type == DataType::kDate
                        ? static_cast<double>(attr.date_min)
                        : attr.numeric_min;
  const double hi = attr.type == DataType::kDate
                        ? static_cast<double>(attr.date_max)
                        : attr.numeric_max;
  if (axis >= hi) return BoundKind::kAlwaysTrue;
  if (axis < lo) return BoundKind::kNeverTrue;
  *out = Formula::Or(
      {Formula::MakeAtom(Atom::Prop(attr_idx, AtomOp::kLt, c)),
       Formula::MakeAtom(Atom::Prop(attr_idx, AtomOp::kEq, c))});
  return BoundKind::kAtom;
}

/// "attr > x" clamped to the schema domain.
BoundKind LowerBound(int attr_idx, const AttributeDef& attr, double x,
                     Formula* out) {
  const Value c = OrderedConstant(attr, x);
  const double axis = c.OrderedValue();
  const double lo = attr.type == DataType::kDate
                        ? static_cast<double>(attr.date_min)
                        : attr.numeric_min;
  const double hi = attr.type == DataType::kDate
                        ? static_cast<double>(attr.date_max)
                        : attr.numeric_max;
  if (axis < lo) return BoundKind::kAlwaysTrue;
  if (axis >= hi) return BoundKind::kNeverTrue;
  *out = Formula::MakeAtom(Atom::Prop(attr_idx, AtomOp::kGt, c));
  return BoundKind::kAtom;
}

/// Consequent formula for one class of the encoder: the category itself
/// for nominal class attributes, the bin interval for discretized ones.
Result<Formula> ClassFormula(const ClassEncoder& encoder, int cls,
                             const Schema& schema) {
  const int attr_idx = encoder.attr();
  const AttributeDef& attr = schema.attribute(static_cast<size_t>(attr_idx));
  if (!encoder.is_discretized()) {
    return Formula::MakeAtom(
        Atom::Prop(attr_idx, AtomOp::kEq, encoder.Representative(cls)));
  }
  const std::vector<double>& cuts = encoder.discretizer()->cut_points();
  const int num_bins = encoder.num_classes();
  std::vector<Formula> parts;
  if (cls > 0) {  // bin cls covers (cuts[cls-1], cuts[cls]]
    Formula f;
    switch (LowerBound(attr_idx, attr, cuts[static_cast<size_t>(cls - 1)],
                       &f)) {
      case BoundKind::kAtom:
        parts.push_back(std::move(f));
        break;
      case BoundKind::kAlwaysTrue:
        break;
      case BoundKind::kNeverTrue:
        return Status::InvalidArgument(
            "class bin lies outside the schema domain of '" + attr.name +
            "'");
    }
  }
  if (cls < num_bins - 1) {
    Formula f;
    switch (UpperBound(attr_idx, attr, cuts[static_cast<size_t>(cls)], &f)) {
      case BoundKind::kAtom:
        parts.push_back(std::move(f));
        break;
      case BoundKind::kAlwaysTrue:
        break;
      case BoundKind::kNeverTrue:
        return Status::InvalidArgument(
            "class bin lies outside the schema domain of '" + attr.name +
            "'");
    }
  }
  if (parts.empty()) {
    // A single bin (or one whose cut points straddle the whole domain)
    // only asserts that the class attribute is known.
    return Formula::MakeAtom(Atom::Prop(attr_idx, AtomOp::kIsNotNull));
  }
  if (parts.size() == 1) return std::move(parts.front());
  return Formula::And(std::move(parts));
}

}  // namespace

Result<CandidateRule> StructureRuleToCandidate(const StructureRule& rule,
                                               const ClassEncoder& encoder,
                                               const Schema& schema,
                                               double total_rows,
                                               const std::string& source) {
  if (rule.conditions.empty()) {
    return Status::InvalidArgument(
        "rule with an empty premise cannot be expressed (the grammar has no "
        "TRUE literal)");
  }
  std::vector<Formula> premise_parts;
  premise_parts.reserve(rule.conditions.size());
  for (const SplitCondition& cond : rule.conditions) {
    const AttributeDef& attr =
        schema.attribute(static_cast<size_t>(cond.attr));
    switch (cond.kind) {
      case SplitCondition::Kind::kCategory:
        premise_parts.push_back(Formula::MakeAtom(Atom::Prop(
            cond.attr, AtomOp::kEq, Value::Nominal(cond.category))));
        break;
      case SplitCondition::Kind::kLessEq: {
        Formula f;
        switch (UpperBound(cond.attr, attr, cond.threshold, &f)) {
          case BoundKind::kAtom:
            premise_parts.push_back(std::move(f));
            break;
          case BoundKind::kAlwaysTrue:
            break;
          case BoundKind::kNeverTrue:
            return Status::InvalidArgument(
                "premise threshold lies outside the schema domain of '" +
                attr.name + "'");
        }
        break;
      }
      case SplitCondition::Kind::kGreater: {
        Formula f;
        switch (LowerBound(cond.attr, attr, cond.threshold, &f)) {
          case BoundKind::kAtom:
            premise_parts.push_back(std::move(f));
            break;
          case BoundKind::kAlwaysTrue:
            break;
          case BoundKind::kNeverTrue:
            return Status::InvalidArgument(
                "premise threshold lies outside the schema domain of '" +
                attr.name + "'");
        }
        break;
      }
    }
  }
  if (premise_parts.empty()) {
    return Status::InvalidArgument(
        "every premise condition is vacuous inside the schema domain");
  }

  CandidateRule out;
  out.rule.premise = premise_parts.size() == 1
                         ? std::move(premise_parts.front())
                         : Formula::And(std::move(premise_parts));
  DQ_ASSIGN_OR_RETURN(out.rule.consequent,
                      ClassFormula(encoder, rule.majority_class, schema));
  out.source = source;
  out.confidence = rule.purity;
  const double agreeing = rule.purity * rule.support;
  out.support_count =
      static_cast<size_t>(std::llround(std::max(0.0, agreeing)));
  if (total_rows > 0.0) {
    out.support = agreeing / total_rows;
    out.coverage = rule.support / total_rows;
  }
  return out;
}

std::vector<CandidateRule> ExtractCandidateRules(const AuditModel& model,
                                                 const Schema& schema,
                                                 const AuditorConfig& config,
                                                 double total_rows) {
  std::vector<CandidateRule> out;
  for (const AttributeModel& am : model.models()) {
    const std::vector<StructureRule> rules =
        ExtractRules(am, config, /*drop_useless=*/true);
    const std::string& attr_name =
        schema.attribute(static_cast<size_t>(am.class_attr)).name;
    for (size_t k = 0; k < rules.size(); ++k) {
      Result<CandidateRule> cand = StructureRuleToCandidate(
          rules[k], am.encoder, schema, total_rows,
          "c45:" + attr_name + ":path#" + std::to_string(k + 1));
      if (cand.ok()) out.push_back(std::move(*cand));
    }
  }
  return out;
}

std::vector<CandidateRule> AssociationCandidates(
    const std::vector<AssociationRule>& rules, const Schema& schema,
    double total_rows) {
  (void)schema;
  std::vector<CandidateRule> out;
  out.reserve(rules.size());
  for (size_t k = 0; k < rules.size(); ++k) {
    const AssociationRule& r = rules[k];
    if (r.premise.empty()) continue;
    CandidateRule cand;
    cand.rule = r.ToTdgRule();
    cand.source = "assoc#" + std::to_string(k + 1);
    cand.confidence = r.confidence;
    cand.support_count =
        static_cast<size_t>(std::llround(std::max(0.0, r.support)));
    if (total_rows > 0.0) {
      cand.support = r.support / total_rows;
      if (r.confidence > 0.0) {
        cand.coverage = r.support / r.confidence / total_rows;
      }
    }
    out.push_back(std::move(cand));
  }
  return out;
}

std::string RenderSuggestedRuleFile(const std::vector<CandidateRule>& rules,
                                    const Schema& schema,
                                    const std::string& header) {
  std::string out;
  if (!header.empty()) {
    size_t start = 0;
    while (start <= header.size()) {
      const size_t end = header.find('\n', start);
      const std::string line =
          header.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start);
      out += "# " + line + "\n";
      if (end == std::string::npos) break;
      start = end + 1;
    }
  }
  for (const CandidateRule& r : rules) {
    out += "# @rule conf=" + FormatDouble(r.confidence, 4) +
           " support=" + std::to_string(r.support_count) +
           " coverage=" + FormatDouble(r.coverage, 6) +
           " source=" + r.source + "\n";
    out += RenderRuleSource(r.rule, schema) + "\n";
  }
  return out;
}

std::string RenderStructureModel(const AuditModel& model, const Schema& schema,
                                 const AuditorConfig& config,
                                 size_t max_rules) {
  std::string out;
  for (const AttributeModel& am : model.models()) {
    std::vector<StructureRule> rules =
        ExtractRules(am, config, /*drop_useless=*/true);
    if (rules.empty()) continue;
    std::sort(rules.begin(), rules.end(),
              [](const StructureRule& a, const StructureRule& b) {
                return a.support > b.support;
              });
    out += "== classifier for " +
           schema.attribute(static_cast<size_t>(am.class_attr)).name + " (" +
           std::to_string(rules.size()) + " useful rules)\n";
    for (size_t i = 0; i < rules.size() && i < max_rules; ++i) {
      out += "  " + rules[i].ToString(schema, am.encoder) + "\n";
    }
  }
  return out;
}

}  // namespace dq
