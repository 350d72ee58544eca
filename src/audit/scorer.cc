#include "audit/scorer.h"

#include <algorithm>

#include "audit/error_confidence.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq {

namespace {

using TreeNode = CompiledTree::Node;

/// Rows per block. The kernel walks one tree over a whole block before the
/// next tree, so each tree's nodes stay in cache across the block.
constexpr size_t kBlockRows = 1024;

/// The child a known split value leads to (C45Tree::PredictInto's choice,
/// including its fallback to the first child for an unseen category).
uint32_t ChildFor(const TreeNode& node, const Table& data, size_t row) {
  const size_t attr = static_cast<size_t>(node.attr);
  if (node.ordered) {
    return node.first + (data.ordered_at(row, attr) <= node.threshold ? 0 : 1);
  }
  const int32_t code = data.code_at(row, attr);
  if (code < 0 || static_cast<uint32_t>(code) >= node.children) {
    return node.first;
  }
  return node.first + static_cast<uint32_t>(code);
}

/// Follows known split values from the root; stops at a leaf or at the
/// first split whose value is null.
uint32_t Descend(const CompiledTree& tree, const Table& data, size_t row) {
  const std::vector<TreeNode>& nodes = tree.nodes();
  uint32_t index = 0;
  for (;;) {
    const TreeNode& node = nodes[index];
    if (node.is_leaf() || data.is_null(row, static_cast<size_t>(node.attr))) {
      return index;
    }
    index = ChildFor(node, data, row);
  }
}

/// C4.5's missing-value walk from `index`, carrying `weight`: a null split
/// value sends the record down every branch that had known training
/// weight, scaled by that branch's share of it. Leaves accumulate in the
/// order C45Tree::PredictInto visits them, so the sums round identically.
void Accumulate(const CompiledTree& tree, uint32_t index, const Table& data,
                size_t row, double weight, double* dist, double* support) {
  const std::vector<TreeNode>& nodes = tree.nodes();
  for (;;) {
    const TreeNode& node = nodes[index];
    if (node.is_leaf()) {
      tree.AccumulateLeaf(node, weight, dist, support);
      return;
    }
    if (!data.is_null(row, static_cast<size_t>(node.attr))) {
      index = ChildFor(node, data, row);
      continue;
    }
    if (node.known_weight <= kTreeWeightEpsilon) {
      index = node.first;
      continue;
    }
    for (uint32_t b = 0; b < node.children; ++b) {
      const TreeNode& child = nodes[node.first + b];
      if (child.branch_weight <= kTreeWeightEpsilon) continue;
      Accumulate(tree, node.first + b, data, row,
                 weight * child.branch_weight / node.known_weight, dist,
                 support);
    }
    return;
  }
}

/// A tree's prediction for one record. `dist` points at the leaf's
/// precomputed distribution when known values lead to one leaf, and at
/// `scratch` when a null split value spread the record over several.
struct TreePrediction {
  const double* dist = nullptr;
  int predicted = -1;
  double support = 0.0;
};

TreePrediction PredictTree(const CompiledTree& tree, const Table& data,
                           size_t row, double* scratch) {
  const uint32_t stop = Descend(tree, data, row);
  const TreeNode& node = tree.nodes()[stop];
  if (node.is_leaf()) {
    return {tree.leaf_distribution(node.first), tree.leaf_class(node.first),
            tree.leaf_support(node.first)};
  }
  const size_t width = static_cast<size_t>(tree.num_classes());
  std::fill(scratch, scratch + width, 0.0);
  TreePrediction out;
  Accumulate(tree, stop, data, row, 1.0, scratch, &out.support);
  tree.Normalize(scratch);
  out.dist = scratch;
  out.predicted = ArgMaxClass(scratch, width);
  return out;
}

/// A model read against a table of another schema would index past its
/// columns or read them as the wrong kind.
bool MatchesSchema(const AttributeModel& m, const Schema& schema) {
  if (m.class_attr < 0 ||
      static_cast<size_t>(m.class_attr) >= schema.num_attributes() ||
      schema.attribute(static_cast<size_t>(m.class_attr)).type !=
          m.encoder.type()) {
    return false;
  }
  for (const TreeNode& node : m.tree.nodes()) {
    if (node.is_leaf()) continue;
    if (static_cast<size_t>(node.attr) >= schema.num_attributes() ||
        node.ordered == (schema.attribute(static_cast<size_t>(node.attr))
                             .type == DataType::kNominal)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Prediction PredictRecord(const AttributeModel& model, const Table& data,
                         size_t row) {
  if (model.classifier != nullptr) {
    return model.classifier->Predict(data.row(row));
  }
  Prediction out;
  out.distribution.assign(static_cast<size_t>(model.tree.num_classes()), 0.0);
  const TreePrediction pred =
      PredictTree(model.tree, data, row, out.distribution.data());
  if (pred.dist != out.distribution.data()) {
    std::copy_n(pred.dist, out.distribution.size(), out.distribution.begin());
  }
  out.support = pred.support;
  return out;
}

Result<AuditReport> ScoreTable(const AuditModel& model, const Table& data,
                               const AuditorConfig& config) {
  obs::Span audit_span("audit");
  const std::vector<AttributeModel>& models = model.models();
  for (const AttributeModel& m : models) {
    if (!MatchesSchema(m, data.schema())) {
      return Status::InvalidArgument(
          "model does not match the table's schema");
    }
  }
  AuditReport report;
  const size_t n = data.num_rows();
  report.record_confidence.assign(n, 0.0);
  report.record_attr.assign(n, -1);
  report.record_suggestion.assign(n, Value::Null());
  report.record_support.assign(n, 0.0);
  report.flagged.assign(n, false);

  size_t width = 1;
  for (const AttributeModel& m : models) {
    width = std::max(width, static_cast<size_t>(m.tree.num_classes()));
  }

  // Each record is scored independently (Def. 7/8) into its own slots, so
  // row blocks spread across the pool; every record still meets the models
  // in model order, so ties resolve as in a serial run. The bit-packed
  // `flagged` vector and the ranked list are filled serially below, which
  // keeps the report byte-identical for every thread count. No per-block
  // spans: blocks map to threads by schedule, which would make the span
  // tree schedule-dependent.
  {
    obs::Span score_span("audit.score");
    const size_t blocks = (n + kBlockRows - 1) / kBlockRows;
    ParallelFor(ResolveThreadCount(config.num_threads), blocks,
                [&](size_t block) {
      const size_t begin = block * kBlockRows;
      const size_t end = std::min(n, begin + kBlockRows);
      std::vector<double> scratch(width);
      std::vector<Row> rows;  // materialized for the first non-tree model
      for (const AttributeModel& m : models) {
        if (m.classifier != nullptr && rows.empty()) {
          rows.reserve(end - begin);
          for (size_t r = begin; r < end; ++r) rows.push_back(data.row(r));
        }
        const size_t class_attr = static_cast<size_t>(m.class_attr);
        for (size_t r = begin; r < end; ++r) {
          const int observed = m.encoder.Encode(data.cell(r, class_attr));
          double conf = 0.0;
          int predicted = -1;
          double support = 0.0;
          if (m.classifier == nullptr) {
            const TreePrediction pred =
                PredictTree(m.tree, data, r, scratch.data());
            conf = ErrorConfidence(
                pred.dist, static_cast<size_t>(m.tree.num_classes()),
                pred.predicted, pred.support, observed,
                config.confidence_level, config.flag_null_values);
            predicted = pred.predicted;
            support = pred.support;
          } else {
            const Prediction pred = m.classifier->Predict(rows[r - begin]);
            conf = ErrorConfidence(pred, observed, config.confidence_level,
                                   config.flag_null_values);
            predicted = pred.PredictedClass();
            support = pred.support;
          }
          if (conf > report.record_confidence[r]) {  // Def. 8: the maximum
            report.record_confidence[r] = conf;
            report.record_attr[r] = m.class_attr;
            report.record_suggestion[r] = m.encoder.Representative(predicted);
            report.record_support[r] = support;
          }
        }
      }
    });
  }

  {
    obs::Span rank_span("audit.rank");
    for (size_t r = 0; r < n; ++r) {
      const int attr = report.record_attr[r];
      if (attr < 0 ||
          report.record_confidence[r] < config.min_error_confidence) {
        continue;
      }
      report.flagged[r] = true;
      Suspicion s;
      s.row = r;
      s.error_confidence = report.record_confidence[r];
      s.attr = attr;
      s.observed = data.cell(r, static_cast<size_t>(attr));
      s.suggestion = report.record_suggestion[r];
      s.support = report.record_support[r];
      report.suspicious.push_back(std::move(s));
    }
    std::stable_sort(report.suspicious.begin(), report.suspicious.end(),
                     [](const Suspicion& a, const Suspicion& b) {
                       return a.error_confidence > b.error_confidence;
                     });
  }
  obs::GetCounter("audit.records_scored")->Add(n);
  obs::GetCounter("audit.suspicions_flagged")->Add(report.suspicious.size());
  return report;
}

}  // namespace dq
