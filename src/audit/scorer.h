// The scoring kernel of deviation detection: Def. 7 per attribute model
// and Def. 8 across them, for every record of a table, then the ranking of
// sec. 6.2. AuditModel::Check (so Auditor::Audit), every streaming segment
// and ExplainRecord score induced and loaded models through it.
//
// A Scorer is a model made ready for one run: its trees checked against
// the schema, per C4.5 model a per-leaf Def. 7 table for the run's
// confidence level and null policy (LeafErrorConfidences), and the run's
// worker pool. It is built once per model and run, so a segmented audit
// scores all its segments with one, each across every worker.
//
// C4.5 models are scored a block of 1024 rows at a time. The block's
// split values are laid out once, row-major, one 8-byte slot per
// attribute with nulls marked. Each tree then walks the block eight rows
// at a time over its compact split array (CompiledTree::Split): every
// step advances all eight lanes, computing each child from its value
// instead of branching to it, and a lane stops at a leaf or at a split
// whose value is null. That stop node is where the per-row walk of
// C45Tree::Predict leaves its known values, so what follows is unchanged
// and in row order: a record at a leaf reads its Def. 7 value from the
// leaf's table, and one stopped by a null takes C4.5's fractional walk
// and Def. 7 directly; Def. 8 keeps the running maximum. The result is
// bit for bit what C45Tree::Predict and ErrorConfidence give, so a
// persisted model ranks exactly like the in-memory one. Other inducers
// are asked through Classifier::Predict inside the same loop.

#ifndef DQ_AUDIT_SCORER_H_
#define DQ_AUDIT_SCORER_H_

#include <memory>
#include <vector>

#include "audit/auditor.h"
#include "common/parallel.h"

namespace dq {

/// \brief One model's prediction for record `row` of `data`: bitwise what
/// the trained C45Tree (or the model's classifier) predicts for
/// data.row(row). A tree walks the record as a one-row block.
Prediction PredictRecord(const AttributeModel& model, const Table& data,
                         size_t row);

/// \brief Where the kernel's descent of `tree` stops for each of rows
/// [begin, end) of `data`: at a leaf, or at the first split whose value is
/// null. `tree` must read only attributes `data` has, of the kinds it
/// expects. For tests that hold the descent against a per-row walk.
std::vector<uint32_t> StopNodes(const CompiledTree& tree, const Table& data,
                                size_t begin, size_t end);

/// \brief An AuditModel ready to score tables of one schema under one
/// configuration. It refers to the model, which must outlive it.
class Scorer {
 public:
  /// \brief Checks every tree of `model` against `schema` and builds each
  /// C4.5 model's per-leaf Def. 7 table for `config`, and its pool when
  /// `config.num_threads` resolves to more than one. Fails with
  /// InvalidArgument when a compiled tree reads an attribute `schema` lacks
  /// or has another kind, or has another class count than its encoder.
  /// Records an `audit` span with `audit.score` under it.
  static Result<Scorer> Make(const AuditModel& model, const Schema& schema,
                             const AuditorConfig& config);

  /// \brief Scores every record of `data` across `config.num_threads`
  /// workers and ranks the suspicious ones; the report is identical for
  /// every thread count. Fails with InvalidArgument when `data`'s
  /// attribute kinds differ from the schema's given to Make. Records an
  /// `audit` span with `audit.score` and `audit.rank` under it, and the
  /// `audit.records_scored` and `audit.suspicions_flagged` counters.
  Result<AuditReport> Score(const Table& data) const;

 private:
  Scorer(const AuditModel& model, const Schema& schema,
         const AuditorConfig& config);

  const AuditModel* model_;
  AuditorConfig config_;
  std::vector<DataType> kinds_;  ///< the schema's attribute kinds
  /// Per model: its LeafErrorConfidences, empty for a non-tree model.
  std::vector<std::vector<double>> tables_;
  size_t width_ = 1;  ///< the widest tree's class count
  std::unique_ptr<ThreadPool> pool_;  ///< null at one thread
};

}  // namespace dq

#endif  // DQ_AUDIT_SCORER_H_
