// Rule-set diffing over annotated rule files.
//
// dqsuggest emits mined expert-rule candidates as annotated rule files:
// each rule line is preceded by a "# @rule conf=... support=...
// coverage=... source=..." comment carrying the evidence behind it. Two
// such files from different snapshots of the same table tell a
// monitoring story of their own — rules appearing, vanishing, or keeping
// their shape while a numeric threshold slides as the data distribution
// moves. The differ is purely textual (no schema needed) so it can live
// in the obs layer and run on any rule file, annotated or not.
//
// Matching is three-phase and deterministic:
//   1. exact rule-text match: unchanged, or an annotation delta when the
//      @rule evidence (confidence / support / coverage) moved;
//   2. masked match: numeric operands following '<' or '>' are masked
//      out, so "N < 5 -> ..." pairs with "N < 7 -> ..." as a
//      threshold shift (only </> operands are masked — '=' operands are
//      identity, not thresholds, even when they look numeric);
//   3. the remainder is reported as added / removed.

#ifndef DQ_OBS_RULE_DIFF_H_
#define DQ_OBS_RULE_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace dq::obs {

/// \brief One rule line plus its optional "# @rule" annotation.
struct AnnotatedRule {
  std::string text;      ///< the rule line, trimmed
  size_t line = 0;       ///< 1-based line number of the rule text
  bool annotated = false;
  double confidence = 0.0;
  uint64_t support = 0;
  double coverage = 0.0;
  std::string source;
};

/// \brief Parses the annotated rule-file format: '#' lines are comments,
/// a "# @rule key=value ..." comment annotates the next rule line, blank
/// lines separate. Unknown "# @rule" keys are ignored (forward
/// compatibility); a trailing annotation with no rule line is an error.
Result<std::vector<AnnotatedRule>> ParseAnnotatedRuleFile(
    const std::string& text);

/// \brief Reads and parses a rule file from disk.
Result<std::vector<AnnotatedRule>> LoadAnnotatedRuleFile(
    const std::string& path);

/// \brief One difference between the two rule sets.
struct RuleChange {
  /// "added", "removed", "threshold_shift", "annotation_delta".
  std::string kind;
  std::string before;  ///< old rule text ("" for added)
  std::string after;   ///< new rule text ("" for removed)
  /// Annotation deltas (after - before); meaningful when both sides are
  /// annotated. Supports are uint64_t, so `support_delta` saturates at
  /// INT64_MIN and INT64_MAX when the difference leaves that range.
  bool has_annotation_delta = false;
  double confidence_delta = 0.0;
  int64_t support_delta = 0;
  double coverage_delta = 0.0;
  std::string message;  ///< one human-readable line
};

/// \brief The full diff between two rule files.
struct RuleSetDiff {
  /// Bumped whenever the JSON layout changes.
  static constexpr int kSchemaVersion = 1;

  size_t before_rules = 0;
  size_t after_rules = 0;
  size_t unchanged = 0;
  /// Ordered: threshold shifts, annotation deltas, removed, added; each
  /// group in first-file line order.
  std::vector<RuleChange> changes;

  bool HasChanges() const { return !changes.empty(); }

  /// \brief Aligned text rendering, one line per change.
  std::string RenderText() const;

  /// \brief Pretty JSON rendering.
  std::string ToJson(int indent = 2) const;
};

/// \brief Diffs two parsed rule sets (before -> after).
RuleSetDiff DiffRuleSets(const std::vector<AnnotatedRule>& before,
                         const std::vector<AnnotatedRule>& after);

}  // namespace dq::obs

#endif  // DQ_OBS_RULE_DIFF_H_
