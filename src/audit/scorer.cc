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
/// columns or read them as the wrong kind; a tree with another class count
/// than its encoder would index past its rows of the Def. 7 table.
bool MatchesSchema(const AttributeModel& m, const Schema& schema) {
  if (m.class_attr < 0 ||
      static_cast<size_t>(m.class_attr) >= schema.num_attributes() ||
      schema.attribute(static_cast<size_t>(m.class_attr)).type !=
          m.encoder.type()) {
    return false;
  }
  if (m.classifier != nullptr) return true;
  if (m.tree.nodes().empty() ||
      m.tree.num_classes() != m.encoder.num_classes()) {
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

/// ClassEncoder::Encode(data.cell(r, attr)) for rows [begin, end), read
/// from the typed column: a nominal column holds its codes (-1 = null).
void ReadClassCodes(const ClassEncoder& encoder, const Table& data,
                    size_t attr, size_t begin, size_t end, int* codes) {
  if (encoder.type() == DataType::kNominal) {
    const int32_t* column = data.code_col(attr).data();
    std::copy(column + begin, column + end, codes);
    return;
  }
  for (size_t r = begin; r < end; ++r) {
    *codes++ = data.is_null(r, attr)
                   ? -1
                   : encoder.EncodeOrdered(data.ordered_at(r, attr));
  }
}

/// Def. 8 over one row block: each record's highest confidence so far and
/// the model (index into AuditModel::models) and prediction behind it.
struct BlockBest {
  double conf[kBlockRows];
  int model[kBlockRows];
  int predicted[kBlockRows];
  double support[kBlockRows];

  void Offer(size_t i, double c, int m, int pred, double sup) {
    if (c > conf[i]) {  // Def. 8: the maximum; ties keep the earlier model
      conf[i] = c;
      model[i] = m;
      predicted[i] = pred;
      support[i] = sup;
    }
  }
};

/// Scores rows [begin, end) against one C4.5 model into `best`. A record
/// that reaches a leaf along known values costs one descent and one lookup
/// in `table` (LeafErrorConfidences); one stopped by a null split value
/// takes C4.5's fractional walk and Def. 7 directly.
void ScoreTreeBlock(const AttributeModel& m, int model_index,
                    const std::vector<double>& table, const Table& data,
                    size_t begin, size_t end, const int* observed,
                    const AuditorConfig& config, double* scratch,
                    BlockBest* best) {
  const CompiledTree& tree = m.tree;
  const int width = tree.num_classes();
  const size_t stride = static_cast<size_t>(width) + 1;
  for (size_t r = begin; r < end; ++r) {
    const size_t i = r - begin;
    const int obs = observed[i];
    const uint32_t stop = Descend(tree, data, r);
    const TreeNode& node = tree.nodes()[stop];
    if (node.is_leaf() && obs < width) {
      const uint32_t leaf = node.first;
      best->Offer(i,
                  table[leaf * stride +
                        static_cast<size_t>(std::max(obs, -1) + 1)],
                  model_index, tree.leaf_class(leaf), tree.leaf_support(leaf));
      continue;
    }
    const TreePrediction pred = PredictTree(tree, data, r, scratch);
    const double conf = ErrorConfidence(
        pred.dist, static_cast<size_t>(width), pred.predicted, pred.support,
        obs, config.confidence_level, config.flag_null_values);
    best->Offer(i, conf, model_index, pred.predicted, pred.support);
  }
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
  const size_t n = data.num_rows();
  const size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  std::vector<std::vector<Suspicion>> block_suspicions(blocks);

  // Each record is scored independently (Def. 7/8), so row blocks spread
  // across the pool; every record still meets the models in model order,
  // so ties resolve as in a serial run. Each block keeps its running
  // maxima locally and emits its suspicions in row order; the ranking
  // below concatenates them in block order, which keeps the report
  // byte-identical for every thread count. No per-block spans: blocks map
  // to threads by schedule, which would make the span tree
  // schedule-dependent.
  {
    obs::Span score_span("audit.score");
    size_t width = 1;
    std::vector<std::vector<double>> tables(models.size());
    for (size_t k = 0; k < models.size(); ++k) {
      const AttributeModel& m = models[k];
      width = std::max(width, static_cast<size_t>(m.tree.num_classes()));
      if (m.classifier == nullptr) {
        tables[k] = LeafErrorConfidences(m.tree, config.confidence_level,
                                         config.flag_null_values);
      }
    }
    ParallelFor(ResolveThreadCount(config.num_threads), blocks,
                [&](size_t block) {
      const size_t begin = block * kBlockRows;
      const size_t end = std::min(n, begin + kBlockRows);
      const size_t rows_in_block = end - begin;
      BlockBest best;
      std::fill_n(best.conf, rows_in_block, 0.0);
      std::fill_n(best.model, rows_in_block, -1);
      std::vector<double> scratch(width);
      std::vector<int> observed(rows_in_block);
      std::vector<Row> rows;  // materialized for the first non-tree model
      for (size_t k = 0; k < models.size(); ++k) {
        const AttributeModel& m = models[k];
        ReadClassCodes(m.encoder, data, static_cast<size_t>(m.class_attr),
                       begin, end, observed.data());
        if (m.classifier == nullptr) {
          ScoreTreeBlock(m, static_cast<int>(k), tables[k], data, begin, end,
                         observed.data(), config, scratch.data(), &best);
          continue;
        }
        if (rows.empty()) {
          rows.reserve(rows_in_block);
          for (size_t r = begin; r < end; ++r) rows.push_back(data.row(r));
        }
        for (size_t i = 0; i < rows_in_block; ++i) {
          const Prediction pred = m.classifier->Predict(rows[i]);
          best.Offer(i,
                     ErrorConfidence(pred, observed[i],
                                     config.confidence_level,
                                     config.flag_null_values),
                     static_cast<int>(k), pred.PredictedClass(),
                     pred.support);
        }
      }
      const auto flags = [&](size_t i) {
        return best.model[i] >= 0 &&
               best.conf[i] >= config.min_error_confidence;
      };
      std::vector<Suspicion>& out = block_suspicions[block];
      size_t flagged = 0;
      for (size_t i = 0; i < rows_in_block; ++i) flagged += flags(i) ? 1 : 0;
      out.reserve(flagged);
      for (size_t i = 0; i < rows_in_block; ++i) {
        if (!flags(i)) continue;
        const AttributeModel& m = models[static_cast<size_t>(best.model[i])];
        Suspicion s;
        s.row = begin + i;
        s.error_confidence = best.conf[i];
        s.attr = m.class_attr;
        s.observed = data.cell(s.row, static_cast<size_t>(m.class_attr));
        s.suggestion = m.encoder.Representative(best.predicted[i]);
        s.support = best.support[i];
        out.push_back(std::move(s));
      }
    });
  }

  AuditReport report;
  {
    obs::Span rank_span("audit.rank");
    size_t total = 0;
    for (const std::vector<Suspicion>& list : block_suspicions) {
      total += list.size();
    }
    report.suspicious.reserve(total);
    report.flagged.assign(n, false);
    for (std::vector<Suspicion>& list : block_suspicions) {
      for (Suspicion& s : list) {
        report.flagged[s.row] = true;
        report.suspicious.push_back(std::move(s));
      }
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
