// The scoring kernel of deviation detection: Def. 7 per attribute model
// and Def. 8 across them, for every record of a table, then the ranking of
// sec. 6.2. Auditor::Audit (and so every streaming segment),
// StructureModel::Check and ExplainRecord all score through it.
//
// C4.5 models are scored by walking their CompiledTree over the table's
// typed columns, a block of rows at a time per tree, with no Row or
// Prediction built per record. The walk reproduces C45Tree::Predict bit
// for bit, including C4.5's fractional weights for null split values, so a
// persisted model ranks exactly like the in-memory one. Other inducers are
// asked through Classifier::Predict inside the same loop.

#ifndef DQ_AUDIT_SCORER_H_
#define DQ_AUDIT_SCORER_H_

#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief One attribute model as the kernel sees it.
struct ScoringModel {
  int class_attr = -1;
  const ClassEncoder* encoder = nullptr;
  /// The compiled C4.5 tree; null for other inducers, which are scored
  /// through `classifier`.
  const CompiledTree* tree = nullptr;
  const Classifier* classifier = nullptr;
};

/// \brief The scoring view of an induced attribute model (which must
/// outlive it).
ScoringModel ScoringModelOf(const AttributeModel& model);

/// \brief One model's prediction for record `row` of `data`: bitwise what
/// its classifier's Predict returns for data.row(row).
Prediction PredictRecord(const ScoringModel& model, const Table& data,
                         size_t row);

/// \brief Scores every record of `data` against `models` across
/// `config.num_threads` workers and ranks the suspicious ones; the report
/// is identical for every thread count. Fails when a compiled tree reads
/// an attribute `data` lacks or has another kind. Records the `audit` span
/// with `audit.score` and `audit.rank` under it, and the
/// `audit.records_scored` and `audit.suspicions_flagged` counters.
Result<AuditReport> ScoreTable(const std::vector<ScoringModel>& models,
                               const Table& data,
                               const AuditorConfig& config);

}  // namespace dq

#endif  // DQ_AUDIT_SCORER_H_
