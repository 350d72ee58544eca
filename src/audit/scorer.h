// The scoring kernel of deviation detection: Def. 7 per attribute model
// and Def. 8 across them, for every record of a table, then the ranking of
// sec. 6.2. Auditor::Audit (so every streaming segment), AuditModel::Check
// and ExplainRecord score induced and loaded models through it.
//
// C4.5 models are scored by walking their CompiledTree over the table's
// typed columns, a block of rows at a time per tree, with no Row or
// Prediction built per record. The walk reproduces C45Tree::Predict bit
// for bit, including C4.5's fractional weights for null split values, so a
// persisted model ranks exactly like the in-memory one. A record that
// reaches a leaf along known values reads its Def. 7 value from a per-leaf
// table built once per call (LeafErrorConfidences). Other inducers are
// asked through Classifier::Predict inside the same loop.

#ifndef DQ_AUDIT_SCORER_H_
#define DQ_AUDIT_SCORER_H_

#include "audit/auditor.h"

namespace dq {

/// \brief One model's prediction for record `row` of `data`: bitwise what
/// the trained C45Tree (or the model's classifier) predicts for
/// data.row(row).
Prediction PredictRecord(const AttributeModel& model, const Table& data,
                         size_t row);

/// \brief Scores every record of `data` against `model` across
/// `config.num_threads` workers and ranks the suspicious ones; the report
/// is identical for every thread count. Fails when a compiled tree reads
/// an attribute `data` lacks or has another kind, or has another class
/// count than its encoder. Records the `audit` span
/// with `audit.score` and `audit.rank` under it, and the
/// `audit.records_scored` and `audit.suspicions_flagged` counters.
Result<AuditReport> ScoreTable(const AuditModel& model, const Table& data,
                               const AuditorConfig& config);

}  // namespace dq

#endif  // DQ_AUDIT_SCORER_H_
