#include "audit/scorer.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "audit/error_confidence.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq {

namespace {

using TreeNode = CompiledTree::Node;
using TreeSplit = CompiledTree::Split;

/// Rows per block. The kernel walks one tree over a whole block before the
/// next tree, so each tree's splits stay in cache across the block.
constexpr size_t kBlockRows = 1024;

/// Rows one descent step advances together. Their walks are independent,
/// so the loads of eight rows overlap where one row's would wait in turn.
constexpr size_t kLanes = 8;

/// The slot of a null cell. Laid out as a double it is a NaN no known
/// value keeps (RowBlock::LayOut maps a stored NaN with these bits to
/// another NaN, which compares the same), and a nominal code zero-extended
/// from 32 bits never has these bits.
constexpr uint64_t kNullSlot = ~uint64_t{0};

/// The split values of up to kBlockRows rows, row-major: one 8-byte slot
/// per attribute. An ordered attribute's slot holds the bits of its value
/// as a double (a date its day count), a nominal one's its code
/// zero-extended to 64 bits, and a null cell holds kNullSlot. The rows are
/// padded with null rows to a multiple of kLanes, so every lane group is
/// whole; a padded row stops at the root.
class RowBlock {
 public:
  /// \brief Lays out rows [begin, end) of `data`.
  void LayOut(const Table& data, size_t begin, size_t end) {
    stride_ = data.num_attributes();
    const size_t n = end - begin;
    rows_ = (n + kLanes - 1) / kLanes * kLanes;
    slots_.resize(rows_ * stride_);
    std::fill(slots_.begin() + static_cast<std::ptrdiff_t>(n * stride_),
              slots_.end(), kNullSlot);
    for (size_t a = 0; a < stride_; ++a) {
      const uint64_t* nulls = data.null_words(a).data();
      const auto slot = [&](size_t r) -> uint64_t& {
        return slots_[(r - begin) * stride_ + a];
      };
      const auto is_null = [nulls](size_t r) {
        return ((nulls[r >> 6] >> (r & 63)) & 1u) != 0;
      };
      switch (data.schema().attribute(a).type) {
        case DataType::kNumeric: {
          constexpr uint64_t kNaN =
              std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
          const double* column = data.numeric_col(a).data();
          for (size_t r = begin; r < end; ++r) {
            const uint64_t v = std::bit_cast<uint64_t>(column[r]);
            slot(r) = is_null(r) ? kNullSlot : v == kNullSlot ? kNaN : v;
          }
          break;
        }
        case DataType::kDate: {
          const int32_t* column = data.code_col(a).data();
          for (size_t r = begin; r < end; ++r) {
            slot(r) = is_null(r) ? kNullSlot
                                 : std::bit_cast<uint64_t>(
                                       static_cast<double>(column[r]));
          }
          break;
        }
        case DataType::kNominal: {
          const int32_t* column = data.code_col(a).data();
          for (size_t r = begin; r < end; ++r) {
            slot(r) = is_null(r) ? kNullSlot
                                 : static_cast<uint32_t>(column[r]);
          }
          break;
        }
      }
    }
  }

  /// \brief Laid-out rows, padding included.
  size_t rows() const { return rows_; }
  /// \brief The slots of row `i` (0 = the block's first row).
  const uint64_t* row(size_t i) const { return &slots_[i * stride_]; }

 private:
  size_t stride_ = 0;
  size_t rows_ = 0;
  std::vector<uint64_t> slots_;
};

/// The node a known split value `v` leads to: C45Tree::PredictInto's
/// choice, including its fallback to the first child for an unseen
/// category (a code at or past the split's children; a negative code
/// zero-extends past them). Both candidates are computed by arithmetic
/// and the split's kind picks one. A leaf leads to itself.
inline uint32_t ChildFor(const TreeSplit& split, uint64_t v) {
  const uint32_t ordered =
      split.first + (std::bit_cast<double>(v) <= split.threshold ? 0u : 1u);
  const uint32_t nominal =
      split.first + (v < split.children ? static_cast<uint32_t>(v) : 0u);
  return split.ordered ? ordered : nominal;
}

/// Walks every row of `block` down `tree`, kLanes rows at a time, and
/// writes where each stops into `stops` (block.rows() entries): at a leaf,
/// or at the first split whose value is null. Each step advances all lanes
/// of a group. A stopped lane stays put, since a leaf leads to itself and
/// a null value keeps its node, while a moving lane only goes forward (the
/// children of a split come after it); so a group is done when no lane
/// moved, and every lane stops where a walk of its row alone would.
void Descend(const CompiledTree& tree, const RowBlock& block,
             uint32_t* stops) {
  const TreeSplit* splits = tree.splits().data();
  for (size_t r0 = 0; r0 < block.rows(); r0 += kLanes) {
    const uint64_t* rows[kLanes];
    for (size_t l = 0; l < kLanes; ++l) rows[l] = block.row(r0 + l);
    uint32_t* node = stops + r0;
    std::fill_n(node, kLanes, 0u);
    uint32_t moved = 0;
    do {
      moved = 0;
      for (size_t l = 0; l < kLanes; ++l) {
        const TreeSplit& split = splits[node[l]];
        const uint64_t v = rows[l][split.attr];
        const uint32_t next = v == kNullSlot ? node[l] : ChildFor(split, v);
        moved |= next ^ node[l];
        node[l] = next;
      }
    } while (moved != 0);
  }
}

/// C4.5's missing-value walk from `index` for the row whose slots are
/// `row`, carrying `weight`: a null split value sends the record down
/// every branch that had known training weight, scaled by that branch's
/// share of it. Leaves accumulate in the order C45Tree::PredictInto visits
/// them, so the sums round identically.
void Accumulate(const CompiledTree& tree, uint32_t index, const uint64_t* row,
                double weight, double* dist, double* support) {
  const std::vector<TreeNode>& nodes = tree.nodes();
  for (;;) {
    const TreeNode& node = nodes[index];
    if (node.is_leaf()) {
      tree.AccumulateLeaf(node, weight, dist, support);
      return;
    }
    const TreeSplit& split = tree.splits()[index];
    if (row[split.attr] != kNullSlot) {
      index = ChildFor(split, row[split.attr]);
      continue;
    }
    if (node.known_weight <= kTreeWeightEpsilon) {
      index = node.first;
      continue;
    }
    for (uint32_t b = 0; b < node.children; ++b) {
      const TreeNode& child = nodes[node.first + b];
      if (child.branch_weight <= kTreeWeightEpsilon) continue;
      Accumulate(tree, node.first + b, row,
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

/// The prediction for the row whose slots are `row`, whose descent stopped
/// at node `stop`.
TreePrediction PredictFrom(const CompiledTree& tree, uint32_t stop,
                           const uint64_t* row, double* scratch) {
  const TreeNode& node = tree.nodes()[stop];
  if (node.is_leaf()) {
    return {tree.leaf_distribution(node.first), tree.leaf_class(node.first),
            tree.leaf_support(node.first)};
  }
  const size_t width = static_cast<size_t>(tree.num_classes());
  std::fill(scratch, scratch + width, 0.0);
  TreePrediction out;
  Accumulate(tree, stop, row, 1.0, scratch, &out.support);
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

/// Scores the rows of `block` (`rows` of them) against one C4.5 model
/// into `best`, in row order. The block is walked down the tree first; a
/// record that stops at a leaf then costs one lookup in `table`
/// (LeafErrorConfidences), and one stopped by a null split value takes
/// C4.5's fractional walk and Def. 7 directly.
void ScoreTreeBlock(const AttributeModel& m, int model_index,
                    const std::vector<double>& table, const RowBlock& block,
                    size_t rows, const int* observed,
                    const AuditorConfig& config, double* scratch,
                    BlockBest* best) {
  const CompiledTree& tree = m.tree;
  const int width = tree.num_classes();
  const size_t stride = static_cast<size_t>(width) + 1;
  uint32_t stops[kBlockRows];
  Descend(tree, block, stops);
  for (size_t i = 0; i < rows; ++i) {
    const int obs = observed[i];
    const TreeNode& node = tree.nodes()[stops[i]];
    if (node.is_leaf() && obs < width) {
      const uint32_t leaf = node.first;
      best->Offer(i,
                  table[leaf * stride +
                        static_cast<size_t>(std::max(obs, -1) + 1)],
                  model_index, tree.leaf_class(leaf), tree.leaf_support(leaf));
      continue;
    }
    const TreePrediction pred =
        PredictFrom(tree, stops[i], block.row(i), scratch);
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
  RowBlock block;
  block.LayOut(data, row, row + 1);
  uint32_t stops[kLanes];
  Descend(model.tree, block, stops);
  Prediction out;
  out.distribution.assign(static_cast<size_t>(model.tree.num_classes()), 0.0);
  const TreePrediction pred = PredictFrom(model.tree, stops[0], block.row(0),
                                          out.distribution.data());
  if (pred.dist != out.distribution.data()) {
    std::copy_n(pred.dist, out.distribution.size(), out.distribution.begin());
  }
  out.support = pred.support;
  return out;
}

std::vector<uint32_t> StopNodes(const CompiledTree& tree, const Table& data,
                                size_t begin, size_t end) {
  std::vector<uint32_t> out;
  out.reserve(end - begin);
  RowBlock block;
  uint32_t stops[kBlockRows];
  for (size_t b = begin; b < end; b += kBlockRows) {
    const size_t e = std::min(end, b + kBlockRows);
    block.LayOut(data, b, e);
    Descend(tree, block, stops);
    out.insert(out.end(), stops, stops + (e - b));
  }
  return out;
}

Scorer::Scorer(const AuditModel& model, const Schema& schema,
               const AuditorConfig& config)
    : model_(&model), config_(config) {
  kinds_.reserve(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    kinds_.push_back(schema.attribute(a).type);
  }
}

Result<Scorer> Scorer::Make(const AuditModel& model, const Schema& schema,
                            const AuditorConfig& config) {
  obs::Span audit_span("audit");
  obs::Span score_span("audit.score");
  const std::vector<AttributeModel>& models = model.models();
  for (const AttributeModel& m : models) {
    if (!MatchesSchema(m, schema)) {
      return Status::InvalidArgument(
          "model does not match the table's schema");
    }
  }
  Scorer scorer(model, schema, config);
  const int threads = ResolveThreadCount(config.num_threads);
  if (threads > 1) scorer.pool_ = std::make_unique<ThreadPool>(threads);
  scorer.tables_.resize(models.size());
  for (size_t k = 0; k < models.size(); ++k) {
    const AttributeModel& m = models[k];
    scorer.width_ =
        std::max(scorer.width_, static_cast<size_t>(m.tree.num_classes()));
    if (m.classifier == nullptr) {
      scorer.tables_[k] = LeafErrorConfidences(
          m.tree, config.confidence_level, config.flag_null_values);
    }
  }
  return scorer;
}

Result<AuditReport> Scorer::Score(const Table& data) const {
  obs::Span audit_span("audit");
  const Schema& schema = data.schema();
  bool same_kinds = schema.num_attributes() == kinds_.size();
  for (size_t a = 0; same_kinds && a < kinds_.size(); ++a) {
    same_kinds = schema.attribute(a).type == kinds_[a];
  }
  if (!same_kinds) {
    return Status::InvalidArgument("model does not match the table's schema");
  }
  const AuditorConfig& config = config_;
  const std::vector<AttributeModel>& models = model_->models();
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
    // Each task takes a contiguous run of blocks and reuses one row block,
    // Def. 8 state and class-code buffer across them.
    const int threads = ResolveThreadCount(config.num_threads);
    const size_t tasks = std::min(static_cast<size_t>(threads), blocks);
    RunBatch(pool_.get(), tasks, [&](size_t task) {
      RowBlock slots;
      BlockBest best;
      std::vector<double> scratch(width_);
      std::vector<int> observed(kBlockRows);
      for (size_t block = blocks * task / tasks;
           block < blocks * (task + 1) / tasks; ++block) {
        const size_t begin = block * kBlockRows;
        const size_t end = std::min(n, begin + kBlockRows);
        const size_t rows_in_block = end - begin;
        std::fill_n(best.conf, rows_in_block, 0.0);
        std::fill_n(best.model, rows_in_block, -1);
        slots.LayOut(data, begin, end);
        std::vector<Row> rows;  // materialized for the first non-tree model
        for (size_t k = 0; k < models.size(); ++k) {
          const AttributeModel& m = models[k];
          ReadClassCodes(m.encoder, data, static_cast<size_t>(m.class_attr),
                         begin, end, observed.data());
          if (m.classifier == nullptr) {
            ScoreTreeBlock(m, static_cast<int>(k), tables_[k], slots,
                           rows_in_block, observed.data(), config,
                           scratch.data(), &best);
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
