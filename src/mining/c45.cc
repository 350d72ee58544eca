#include "mining/c45.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/strings.h"
#include "mining/encoded_dataset.h"
#include "mining/histogram.h"
#include "mining/split_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"

namespace dq {

const char* PruningModeToString(PruningMode mode) {
  switch (mode) {
    case PruningMode::kNone:
      return "none";
    case PruningMode::kPessimistic:
      return "pessimistic";
    case PruningMode::kExpectedErrorConfidence:
      return "expected-error-confidence";
  }
  return "unknown";
}

const char* SplitModeToString(SplitMode mode) {
  switch (mode) {
    case SplitMode::kHistogram:
      return "histogram";
    case SplitMode::kExact:
      return "exact";
  }
  return "unknown";
}

double MinInstForConfidence(double min_conf, double confidence_level) {
  if (min_conf <= 0.0) return 1.0;
  // errorConf of a deviating record at a pure leaf of weight n:
  // leftBound(1, n) - rightBound(0, n); monotonically increasing in n.
  for (double n = 1.0; n <= 1e6; n = std::max(n + 1.0, n * 1.01)) {
    const double conf = LeftBound(1.0, n, confidence_level) -
                        RightBound(0.0, n, confidence_level);
    if (conf >= min_conf) return std::ceil(n);
  }
  return 1e6;
}

std::string SplitCondition::ToString(const Schema& schema) const {
  const AttributeDef& def = schema.attribute(static_cast<size_t>(attr));
  switch (kind) {
    case Kind::kCategory:
      return def.name + " = " +
             (category >= 0 &&
                      static_cast<size_t>(category) < def.categories.size()
                  ? def.categories[static_cast<size_t>(category)]
                  : "#" + std::to_string(category));
    case Kind::kLessEq:
      return def.name + " <= " + FormatDouble(threshold, 4);
    case Kind::kGreater:
      return def.name + " > " + FormatDouble(threshold, 4);
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Tree structure

struct C45Tree::Node {
  std::vector<double> class_counts;
  double weight = 0.0;
  int majority = 0;

  int split_attr = -1;  // -1 => leaf
  bool ordered_split = false;
  double threshold = 0.0;
  std::vector<std::unique_ptr<Node>> children;
  std::vector<double> child_weights;  // known-value weight per child
  double known_weight = 0.0;

  /// Def. 9 value of this node (leaf value or weighted child aggregate).
  double expected_error_conf = 0.0;

  bool IsLeaf() const { return split_attr < 0; }
};

C45Tree::C45Tree(C45Config config) : config_(config) {}
C45Tree::~C45Tree() = default;
C45Tree::C45Tree(C45Tree&&) noexcept = default;
C45Tree& C45Tree::operator=(C45Tree&&) noexcept = default;

namespace {

using Inst = std::pair<uint32_t, double>;  // row index, weight

/// Truncated error confidence of Def. 7 used inside Def. 9: contributions
/// below the user's minimal error confidence count as zero (sec. 5.4).
double TruncatedErrorConf(const double* counts, double weight, int observed,
                          int majority, double level, double min_conf) {
  if (weight <= 0.0 || observed == majority) return 0.0;
  const double p_pred = counts[static_cast<size_t>(majority)] / weight;
  const double p_obs = counts[static_cast<size_t>(observed)] / weight;
  const double conf = LeftBound(p_pred, weight, level) -
                      RightBound(p_obs, weight, level);
  if (conf <= 0.0) return 0.0;
  if (conf < min_conf) return 0.0;
  return conf;
}

}  // namespace

double LeafExpectedErrorConf(const double* counts, size_t num_classes,
                             double weight, int majority, double level,
                             double min_conf) {
  if (weight <= 0.0) return 0.0;
  double exp_conf = 0.0;
  for (size_t c = 0; c < num_classes; ++c) {
    if (counts[c] <= 0.0) continue;
    exp_conf += counts[c] / weight *
                TruncatedErrorConf(counts, weight, static_cast<int>(c),
                                   majority, level, min_conf);
  }
  return exp_conf;
}

namespace {

int MajorityOf(const std::vector<double>& counts) {
  int best = 0;
  for (size_t c = 1; c < counts.size(); ++c) {
    if (counts[c] > counts[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

using kernels::SplitEval;

constexpr double kEps = kTreeWeightEpsilon;

}  // namespace

// ---------------------------------------------------------------------------
// Induction
//
// One grower builds the trees of both split modes. They share the node
// statistics and stopping rule, C4.5 split selection, nominal split scoring,
// the partition with its minInst check and null spread, empty-branch leaves
// and Def. 9 pruning, and differ only in how a node scores an ordered
// attribute:
//
//   * kHistogram: every ordered attribute is bucketed once per table into
//     <= 255 equal-frequency bins (EncodedDataset::bins, derived from the
//     shared sort orders), nominal attributes use their dictionary codes as
//     bins, and a sibling family's histograms are filled one attribute at a
//     time over its nodes' instances. Three cost levers stack:
//       - evaluation is O(bins x classes) per attribute instead of
//         O(rows x classes) with a log2 per distinct boundary, and the
//         threshold sweep (kernels::SweepBinnedSplit) refreshes a class's
//         log2 term only when a bin moves weight across;
//       - each binned slice carries a mask of the bins its scans wrote, so
//         the sweep visits only those bins; a node deep in the tree
//         occupies a fraction of the 255;
//       - the largest child of a split never gets scanned -- its histograms
//         are reconstructed as parent minus the scanned siblings.
//   * kExact: every node carries one value-ordered instance list per
//     ordered base attribute, and the SLIQ sweep scores every boundary
//     between distinct values. The root filters EncodedDataset::sort_order
//     down to the class-known rows and each split partitions the lists
//     stably, so no node ever sorts. Nominal attributes are scored by one
//     pass over the node's instances; nothing is scanned or subtracted.
//
// Sibling families wait on one stack, so a tree grows depth first: a node's
// lists live from its creation to its split, its histogram block until its
// split or, kept for subtraction, until its children are scanned, and only
// the families hanging off one root-to-node path are pending. Level by
// level, a whole level's lists would coexist with the next level's. The
// order cannot change a byte: children are attached in branch order when
// their parent expands, and Compile walks the finished tree. Each tree
// grows serially; Auditor::Induce spreads the k trees of an audit over its
// pool. Def. 9 pruning is one post-order pass over the grown tree
// (C45Tree::PruneExpectedErrorConf): construction is pure top-down, so a
// pruning decision only ever consumes finished subtrees.

struct C45Grower {
  using Node = C45Tree::Node;

  /// Nominal histograms are only worth materializing for bounded
  /// dictionaries; wider ones fall back to the direct instance scan.
  static constexpr size_t kMaxNominalHistBins = 1024;
  /// Smallest child worth reconstructing by subtraction instead of
  /// scanning.
  static constexpr size_t kSubtractMinInsts = 1024;
  /// Subtraction residue clamp: real histogram cells hold at least one
  /// instance fraction > 1e-6 (the partition drop threshold), so anything
  /// at or below this is floating-point cancellation noise.
  static constexpr double kResidueEps = 1e-9;

  /// How every node scores one base attribute.
  struct AttrPlan {
    enum class Kind { kNone, kBinned, kSorted, kNominalHist, kNominalScan };
    Kind kind = Kind::kNone;
    size_t width = 0;   ///< histogram rows; 0 unless kBinned/kNominalHist
    size_t offset = 0;  ///< start of this attribute's slice (doubles)
    size_t mask = 0;    ///< kBinned: start of its occupancy mask (words)
    const AttributeBins* bins = nullptr;  // kBinned
    const uint8_t* bin_codes = nullptr;   // kBinned
    const int32_t* codes = nullptr;       // nominal kinds
  };

  /// One node's histograms: per-attribute slices of `cells` and, per
  /// binned attribute, a mask of the bins its scans or its subtraction
  /// wrote. Every binned cell outside a masked bin row is +0.0.
  struct HistBlock {
    std::vector<double> cells;
    std::vector<uint64_t> masks;
  };

  /// One non-terminal node awaiting split evaluation.
  struct Task {
    Node* node = nullptr;
    std::vector<Inst> insts;
    /// kSorted attributes: the instances with a known value, ascending by
    /// value with ties in row order, at their weights in `insts`.
    std::vector<std::vector<Inst>> sorted;
    std::vector<bool> avail;
    int depth = 0;
    double node_entropy = 0.0;
    /// True only for the root: its instances are exactly every class-known
    /// row with unit weight, so whole-column count kernels apply.
    bool dense = false;
    HistBlock hist;
    std::vector<SplitEval> evals;  ///< per-attribute slot
  };

  /// Children of one split, grouped so the subtraction child can be
  /// reconstructed from the parent histogram and its siblings.
  struct Family {
    std::vector<std::unique_ptr<Task>> tasks;  ///< non-terminal children
    /// Parent histogram block; holds cells iff a child is reconstructed.
    HistBlock parent_hist;
    int sub_task = -1;  ///< tasks[] index reconstructed by subtraction
    /// Terminal siblings that still get scanned to support subtraction.
    std::vector<std::vector<Inst>> support_insts;
    std::vector<HistBlock> support_hist;
  };

  C45Grower(const C45Config& cfg, const TrainingData& data)
      : config(cfg),
        schema(data.table().schema()),
        cache(*data.encoded),
        class_codes(cache.class_codes(static_cast<size_t>(data.class_attr))),
        base_attrs(data.base_attrs),
        num_rows(cache.num_rows()),
        nc(static_cast<size_t>(data.encoder().num_classes())),
        min_inst(MinInstForConfidence(cfg.min_error_confidence,
                                      cfg.confidence_level)) {
    const bool exact = config.split_mode == SplitMode::kExact;
    plans.assign(schema.num_attributes(), AttrPlan{});
    for (int a : base_attrs) {
      const size_t attr = static_cast<size_t>(a);
      AttrPlan& plan = plans[attr];
      if (schema.attribute(attr).type == DataType::kNominal) {
        plan.codes = cache.nominal_col(attr);
        const size_t cats = schema.attribute(attr).categories.size();
        if (cats == 0) continue;
        if (!exact && cats <= kMaxNominalHistBins) {
          plan.kind = AttrPlan::Kind::kNominalHist;
          plan.width = cats;
        } else {
          plan.kind = AttrPlan::Kind::kNominalScan;
        }
      } else if (exact) {
        plan.kind = AttrPlan::Kind::kSorted;
      } else {
        const AttributeBins* b = cache.bins(attr);
        if (b == nullptr || b->num_bins <= 0) continue;  // no known values
        plan.kind = AttrPlan::Kind::kBinned;
        plan.width = static_cast<size_t>(b->num_bins);
        plan.bins = b;
        plan.bin_codes = b->codes.data();
      }
    }
    for (int a : base_attrs) {
      AttrPlan& plan = plans[static_cast<size_t>(a)];
      plan.offset = hist_width;
      hist_width += plan.width * nc;
      if (plan.kind == AttrPlan::Kind::kBinned) {
        plan.mask = mask_words;
        mask_words += kernels::kBinMaskWords;
      }
    }
  }

  /// Grows the tree over `insts`, every class-known row at unit weight,
  /// and returns its root.
  std::unique_ptr<Node> Run(std::vector<Inst> insts) {
    // Root statistics over the dense class-code column; the counts are
    // integers, so they match an instance-order accumulation bit for bit.
    std::vector<uint32_t> root_counts(nc, 0);
    kernels::CountClasses(class_codes, num_rows, root_counts.data());
    std::vector<double> counts(nc, 0.0);
    double weight = 0.0;
    for (size_t c = 0; c < nc; ++c) {
      counts[c] = static_cast<double>(root_counts[c]);
      weight += counts[c];
    }
    std::unique_ptr<Node> root = MakeNode(std::move(counts), weight);
    if (IsTerminal(*root, 0)) return root;

    auto task = std::make_unique<Task>();
    task->node = root.get();
    task->avail.assign(schema.num_attributes(), false);
    for (int a : base_attrs) task->avail[static_cast<size_t>(a)] = true;
    task->dense = true;
    task->node_entropy = EntropyBits(root->class_counts.data(), nc);
    if (config.split_mode == SplitMode::kExact) {
      // SLIQ attribute lists: the shared sort order holds ALL value-known
      // rows stable-sorted by (value, row); filtering it down to the rows
      // with a known class value keeps that order, in O(n) per attribute.
      task->sorted.assign(schema.num_attributes(), {});
      for (int a : base_attrs) {
        const size_t attr = static_cast<size_t>(a);
        if (plans[attr].kind != AttrPlan::Kind::kSorted) continue;
        std::vector<Inst>& list = task->sorted[attr];
        list.reserve(insts.size());
        for (uint32_t r : cache.sort_order(attr)) {
          if (class_codes[r] >= 0) list.emplace_back(r, 1.0);
        }
      }
      row_branch.assign(num_rows, -1);
    }
    task->insts = std::move(insts);

    std::vector<Family> stack(1);
    stack.back().tasks.push_back(std::move(task));
    while (!stack.empty()) {
      Family f = std::move(stack.back());
      stack.pop_back();
      Grow(f, &stack);
    }
    sweep_bins->Add(sweep.bins_visited);
    sweep_candidates->Add(sweep.candidates_scored);
    sweep_rescored->Add(sweep.candidates_rescored);
    return root;
  }

 private:
  /// Scans, evaluates and splits one sibling family; the children that
  /// still need a split join `stack` as families of their own.
  void Grow(Family& f, std::vector<Family>* stack) {
    for (std::unique_ptr<Task>& t : f.tasks) {
      ZeroBlock(&t->hist);
      t->evals.assign(schema.num_attributes(), SplitEval{});
    }
    f.support_hist.resize(f.support_insts.size());
    for (HistBlock& block : f.support_hist) ZeroBlock(&block);
    const std::vector<bool>& avail = f.tasks.front()->avail;
    for (int a : base_attrs) {
      if (avail[static_cast<size_t>(a)]) RunUnit(f, a);
    }
    f.parent_hist = {};
    f.support_insts = {};
    f.support_hist = {};
    for (std::unique_ptr<Task>& t : f.tasks) {
      Family children;
      if (Expand(*t, &children)) stack->push_back(std::move(children));
      // Frees the node's instances and, unless Expand kept it as the
      // children's subtraction parent, its histogram block.
      t.reset();
    }
  }

  /// Sets every cell of `block` to +0.0 and clears its masks.
  void ZeroBlock(HistBlock* block) const {
    block->cells.assign(hist_width, 0.0);
    block->masks.assign(mask_words, 0);
  }

  /// Fills one attribute's histogram slice of every node in the family
  /// and evaluates the attribute's split for each.
  void RunUnit(Family& f, int attr) {
    const AttrPlan& plan = plans[static_cast<size_t>(attr)];
    if (plan.width > 0) {
      const int sub = f.parent_hist.cells.empty() ? -1 : f.sub_task;
      for (size_t ti = 0; ti < f.tasks.size(); ++ti) {
        if (static_cast<int>(ti) == sub) continue;
        ScanTask(*f.tasks[ti], plan, &f.tasks[ti]->hist);
      }
      for (size_t s = 0; s < f.support_insts.size(); ++s) {
        histogram_builds->Add(1);
        ScanInsts(f.support_insts[s], plan, &f.support_hist[s]);
      }
      if (sub >= 0) {
        // Largest child = parent - scanned siblings; cells at or below the
        // residue threshold are cancellation noise (exact zeros on
        // unit-weight data, where all sums are integers).
        const size_t len = plan.width * nc;
        HistBlock& child = f.tasks[static_cast<size_t>(sub)]->hist;
        double* dst = child.cells.data() + plan.offset;
        const double* parent = f.parent_hist.cells.data() + plan.offset;
        for (size_t i = 0; i < len; ++i) dst[i] = parent[i];
        for (size_t ti = 0; ti < f.tasks.size(); ++ti) {
          if (static_cast<int>(ti) == sub) continue;
          const double* src = f.tasks[ti]->hist.cells.data() + plan.offset;
          for (size_t i = 0; i < len; ++i) dst[i] -= src[i];
        }
        for (const HistBlock& support : f.support_hist) {
          const double* src = support.cells.data() + plan.offset;
          for (size_t i = 0; i < len; ++i) dst[i] -= src[i];
        }
        for (size_t i = 0; i < len; ++i) {
          if (dst[i] <= kResidueEps) dst[i] = 0.0;
        }
        // The siblings' rows are the parent's rows, so a bin outside the
        // parent's mask is +0.0 in all of them and +0.0 - +0.0 = +0.0 in
        // the child: the child takes the parent's mask.
        if (plan.kind == AttrPlan::Kind::kBinned) {
          std::copy_n(f.parent_hist.masks.data() + plan.mask,
                      kernels::kBinMaskWords, child.masks.data() + plan.mask);
        }
        histogram_subtractions->Add(1);
      }
    }
    for (std::unique_ptr<Task>& t : f.tasks) {
      SplitEval* eval = &t->evals[static_cast<size_t>(attr)];
      switch (plan.kind) {
        case AttrPlan::Kind::kBinned:
          *eval = kernels::SweepBinnedSplit(
              t->hist.cells.data() + plan.offset,
              t->hist.masks.data() + plan.mask, nc, *plan.bins,
              t->node->weight, config.min_split_weight, &sweep);
          break;
        case AttrPlan::Kind::kSorted:
          EvalSorted(*t, attr, eval);
          break;
        case AttrPlan::Kind::kNominalHist:
          EvalNominalHist(*t, plan, eval);
          break;
        case AttrPlan::Kind::kNominalScan:
          EvalNominalScan(*t, attr, eval);
          break;
        case AttrPlan::Kind::kNone:
          break;
      }
    }
  }

  void ScanTask(const Task& t, const AttrPlan& plan, HistBlock* block) {
    histogram_builds->Add(1);
    if (t.dense) {
      // Whole-column kernels: integer counts, then one exact widen to
      // double (the root covers every class-known row at unit weight).
      double* dst = block->cells.data() + plan.offset;
      std::vector<uint32_t> u(plan.width * nc, 0);
      if (plan.kind == AttrPlan::Kind::kBinned) {
        kernels::CountBinClass(plan.bin_codes, class_codes, num_rows, nc,
                               u.data());
        uint64_t* mask = block->masks.data() + plan.mask;
        for (size_t b = 0; b < plan.width; ++b) {
          for (size_t c = 0; c < nc; ++c) {
            if (u[b * nc + c] != 0) {
              mask[b >> 6] |= uint64_t{1} << (b & 63);
              break;
            }
          }
        }
      } else {
        kernels::CountCodeClass(plan.codes, class_codes, num_rows, nc,
                                u.data());
      }
      for (size_t i = 0; i < u.size(); ++i) {
        dst[i] = static_cast<double>(u[i]);
      }
      return;
    }
    ScanInsts(t.insts, plan, block);
  }

  void ScanInsts(const std::vector<Inst>& insts, const AttrPlan& plan,
                 HistBlock* block) {
    double* dst = block->cells.data() + plan.offset;
    if (plan.kind == AttrPlan::Kind::kBinned) {
      const uint8_t* bin_codes = plan.bin_codes;
      uint64_t* mask = block->masks.data() + plan.mask;
      for (const Inst& inst : insts) {
        const uint8_t b = bin_codes[inst.first];
        if (b == kNullBinCode) continue;
        dst[static_cast<size_t>(b) * nc +
            static_cast<size_t>(class_codes[inst.first])] += inst.second;
        mask[b >> 6] |= uint64_t{1} << (b & 63);
      }
    } else {
      const int32_t* codes = plan.codes;
      for (const Inst& inst : insts) {
        const int32_t code = codes[inst.first];
        if (code < 0) continue;
        dst[static_cast<size_t>(code) * nc +
            static_cast<size_t>(class_codes[inst.first])] += inst.second;
      }
    }
  }

  /// The exact SLIQ threshold sweep over the node's value-ordered list of
  /// `attr`: every boundary between distinct values is a candidate.
  void EvalSorted(const Task& t, int attr, SplitEval* eval) const {
    const double* col = cache.ordered_col(static_cast<size_t>(attr));
    const std::vector<Inst>& entries = t.sorted[static_cast<size_t>(attr)];
    std::vector<double> known_counts(nc, 0.0);
    double known = 0.0;
    for (const Inst& inst : entries) {
      known += inst.second;
      known_counts[static_cast<size_t>(class_codes[inst.first])] +=
          inst.second;
    }
    if (known <= kEps || entries.size() < 2) return;
    const double known_entropy = EntropyFromCounts(known_counts);
    std::vector<double> left(nc, 0.0);
    std::vector<double> right = known_counts;
    double left_w = 0.0;
    double best_gain = -1.0;
    double best_thr = 0.0;
    double best_left_w = 0.0;
    size_t distinct = 1;
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      const size_t cls = static_cast<size_t>(class_codes[entries[i].first]);
      const double val = col[entries[i].first];
      const double next_val = col[entries[i + 1].first];
      left[cls] += entries[i].second;
      right[cls] -= entries[i].second;
      left_w += entries[i].second;
      if (next_val > val + kEps) {
        ++distinct;
        const double right_w = known - left_w;
        if (left_w < config.min_split_weight ||
            right_w < config.min_split_weight) {
          continue;
        }
        const double sub = left_w / known * EntropyFromCounts(left) +
                           right_w / known * EntropyFromCounts(right);
        const double gain = known_entropy - sub;
        if (gain > best_gain) {
          best_gain = gain;
          best_thr = std::midpoint(val, next_val);
          best_left_w = left_w;
        }
      }
    }
    if (best_gain <= kEps) return;
    const double node_weight = t.node->weight;
    const double known_frac = known / node_weight;
    double gain = known_frac * best_gain;
    if (distinct > 1) {
      gain -= std::log2(static_cast<double>(distinct - 1)) / known;
    }
    if (gain <= kEps) return;
    std::vector<double> si_weights{best_left_w, known - best_left_w};
    if (node_weight - known > kEps) si_weights.push_back(node_weight - known);
    const double split_info = EntropyFromCounts(si_weights);
    eval->valid = true;
    eval->gain = gain;
    eval->gain_ratio = split_info > kEps ? gain / split_info : 0.0;
    eval->ordered = true;
    eval->threshold = best_thr;
  }

  void EvalNominalHist(const Task& t, const AttrPlan& plan,
                       SplitEval* eval) const {
    const double* h = t.hist.cells.data() + plan.offset;
    std::vector<double> branch_weights(plan.width, 0.0);
    double known = 0.0;
    for (size_t b = 0; b < plan.width; ++b) {
      for (size_t c = 0; c < nc; ++c) branch_weights[b] += h[b * nc + c];
      known += branch_weights[b];
    }
    EvalNominal(t, h, branch_weights, known, eval);
  }

  /// One-pass branch-count accumulation over the node's instances: exact
  /// mode's nominal evaluator, and histogram mode's for dictionaries too
  /// wide to histogram.
  void EvalNominalScan(const Task& t, int attr, SplitEval* eval) const {
    const int32_t* col = cache.nominal_col(static_cast<size_t>(attr));
    const size_t k = schema.attribute(static_cast<size_t>(attr))
                         .categories.size();
    std::vector<double> counts(k * nc, 0.0);
    std::vector<double> branch_weights(k, 0.0);
    double known = 0.0;
    for (const Inst& inst : t.insts) {
      const int32_t code = col[inst.first];
      if (code < 0) continue;
      const size_t b = static_cast<size_t>(code);
      counts[b * nc + static_cast<size_t>(class_codes[inst.first])] +=
          inst.second;
      branch_weights[b] += inst.second;
      known += inst.second;
    }
    EvalNominal(t, counts.data(), branch_weights, known, eval);
  }

  /// Scores the nominal split whose branches hold the rows of the flat
  /// (branch x class) `counts`, weighing `branch_weights` (sum `known`).
  void EvalNominal(const Task& t, const double* counts,
                   const std::vector<double>& branch_weights, double known,
                   SplitEval* eval) const {
    if (known <= kEps) return;
    int non_empty = 0;
    int big_enough = 0;
    double sub_entropy = 0.0;
    for (size_t b = 0; b < branch_weights.size(); ++b) {
      if (branch_weights[b] <= kEps) continue;
      ++non_empty;
      if (branch_weights[b] >= config.min_split_weight) ++big_enough;
      sub_entropy +=
          branch_weights[b] / known * EntropyBits(counts + b * nc, nc);
    }
    if (non_empty < 2 || big_enough < 2) return;
    const double node_weight = t.node->weight;
    const double known_frac = known / node_weight;
    const double gain = known_frac * (t.node_entropy - sub_entropy);
    if (gain <= kEps) return;
    // Split info over the known branches plus the missing "branch".
    std::vector<double> si_weights = branch_weights;
    if (node_weight - known > kEps) si_weights.push_back(node_weight - known);
    const double split_info =
        EntropyBits(si_weights.data(), si_weights.size());
    eval->valid = true;
    eval->gain = gain;
    eval->gain_ratio = split_info > kEps ? gain / split_info : 0.0;
  }

  // --- split selection, partition, child creation -------------------------

  /// Selects and applies the best split of one node. Returns false when
  /// the node stays a leaf or every child is terminal; otherwise fills
  /// `out` with the non-terminal children (and the subtraction setup for
  /// their scans).
  bool Expand(Task& t, Family* out) {
    Node* node = t.node;
    double gain_sum = 0.0;
    int valid_count = 0;
    for (const SplitEval& e : t.evals) {
      if (e.valid) {
        gain_sum += e.gain;
        ++valid_count;
      }
    }
    splits_evaluated->Add(static_cast<uint64_t>(valid_count));
    if (valid_count == 0) return false;
    // C4.5 selection: among candidates with at least average gain, take
    // the best gain ratio (or raw gain in ID3 mode).
    const double avg_gain = gain_sum / valid_count;
    int best_attr = -1;
    double best_score = -1.0;
    for (size_t a = 0; a < t.evals.size(); ++a) {
      const SplitEval& e = t.evals[a];
      if (!e.valid) continue;
      if (config.use_gain_ratio && e.gain + kEps < avg_gain) continue;
      const double score = config.use_gain_ratio ? e.gain_ratio : e.gain;
      if (score > best_score) {
        best_score = score;
        best_attr = static_cast<int>(a);
      }
    }
    if (best_attr < 0) return false;
    const SplitEval& best = t.evals[static_cast<size_t>(best_attr)];

    // Each instance's branch (-1 = null split value) and each known-value
    // partition's size, weight and class counts, in instance order.
    const AttributeDef& def =
        schema.attribute(static_cast<size_t>(best_attr));
    const size_t num_children = best.ordered ? 2 : def.categories.size();
    std::vector<std::vector<double>> child_counts(
        num_children, std::vector<double>(nc, 0.0));
    std::vector<double> child_weight(num_children, 0.0);
    std::vector<size_t> sizes(num_children, 0);
    size_t num_missing = 0;
    double known = 0.0;
    const double* ordered_col =
        cache.ordered_col(static_cast<size_t>(best_attr));
    const int32_t* nominal_col =
        cache.nominal_col(static_cast<size_t>(best_attr));
    branch.resize(t.insts.size());
    for (size_t i = 0; i < t.insts.size(); ++i) {
      const Inst& inst = t.insts[i];
      int32_t b;
      if (best.ordered) {
        const double v = ordered_col[inst.first];
        b = std::isnan(v) ? -1 : (v <= best.threshold ? 0 : 1);
      } else {
        b = std::max(nominal_col[inst.first], int32_t{-1});
      }
      branch[i] = b;
      if (b < 0) {
        ++num_missing;
        continue;
      }
      const size_t bi = static_cast<size_t>(b);
      ++sizes[bi];
      child_counts[bi][static_cast<size_t>(class_codes[inst.first])] +=
          inst.second;
      child_weight[bi] += inst.second;
      known += inst.second;
    }
    const std::vector<double> part_weights = child_weight;

    // minInst pre-pruning (sec. 5.4): once no known-value partition holds
    // minInst instances of one class, deeper leaves can never flag a
    // deviation above the minimal error confidence.
    if (min_inst > 1.0) {
      bool any_strong = false;
      for (size_t b = 0; b < num_children && !any_strong; ++b) {
        if (child_counts[b][static_cast<size_t>(MajorityOf(
                child_counts[b]))] >= min_inst) {
          any_strong = true;
        }
      }
      if (!any_strong) return false;
    }

    // Every partition is allocated once: its known-value instances plus,
    // when nulls are spread over the non-empty branches, one share each.
    const bool spread = num_missing > 0 && known > kEps;
    std::vector<std::vector<Inst>> parts(num_children);
    for (size_t b = 0; b < num_children; ++b) {
      parts[b].reserve(sizes[b] +
                       (spread && part_weights[b] > kEps ? num_missing : 0));
    }
    for (size_t i = 0; i < t.insts.size(); ++i) {
      if (branch[i] >= 0) {
        parts[static_cast<size_t>(branch[i])].push_back(t.insts[i]);
      }
    }
    if (spread) {
      for (size_t i = 0; i < t.insts.size(); ++i) {
        if (branch[i] >= 0) continue;
        const Inst& inst = t.insts[i];
        const size_t cls = static_cast<size_t>(class_codes[inst.first]);
        for (size_t b = 0; b < num_children; ++b) {
          if (part_weights[b] <= kEps) continue;
          const double w = inst.second * part_weights[b] / known;
          if (w > 1e-6) {
            parts[b].emplace_back(inst.first, w);
            child_counts[b][cls] += w;
            child_weight[b] += w;
          }
        }
      }
    }

    node->split_attr = best_attr;
    node->ordered_split = best.ordered;
    node->threshold = best.threshold;
    node->known_weight = known;
    node->child_weights = part_weights;

    std::vector<bool> child_avail = t.avail;
    if (!best.ordered) {
      child_avail[static_cast<size_t>(best_attr)] = false;  // consumed
    }

    std::vector<Task*> branch_task(num_children, nullptr);
    std::vector<std::vector<Inst>> terminal_insts;
    for (size_t b = 0; b < num_children; ++b) {
      if (parts[b].empty()) {
        // Empty branch: leaf predicting the parent majority, weight 0.
        auto child = std::make_unique<Node>();
        child->class_counts.assign(nc, 0.0);
        child->majority = node->majority;
        nodes_built->Add(1);
        node->children.push_back(std::move(child));
        continue;
      }
      std::unique_ptr<Node> child =
          MakeNode(std::move(child_counts[b]), child_weight[b]);
      if (IsTerminal(*child, t.depth + 1)) {
        terminal_insts.push_back(std::move(parts[b]));
        node->children.push_back(std::move(child));
        continue;
      }
      auto ct = std::make_unique<Task>();
      ct->node = child.get();
      ct->insts = std::move(parts[b]);
      ct->avail = child_avail;
      ct->depth = t.depth + 1;
      ct->node_entropy = EntropyBits(child->class_counts.data(), nc);
      branch_task[b] = ct.get();
      out->tasks.push_back(std::move(ct));
      node->children.push_back(std::move(child));
    }
    if (out->tasks.empty()) return false;

    // Exact mode: partition every value-ordered list stably, so children
    // inherit their slices in value order. A row with a null split value
    // joins every non-empty branch at the weight its instance copy
    // received above. Each parent list is freed once partitioned.
    if (!t.sorted.empty()) {
      for (size_t i = 0; i < t.insts.size(); ++i) {
        row_branch[t.insts[i].first] = branch[i];
      }
      for (const std::unique_ptr<Task>& ct : out->tasks) {
        ct->sorted.resize(t.sorted.size());
      }
      for (size_t a = 0; a < t.sorted.size(); ++a) {
        for (const Inst& e : t.sorted[a]) {
          const int32_t br = row_branch[e.first];
          if (br >= 0) {
            Task* ct = branch_task[static_cast<size_t>(br)];
            if (ct != nullptr) ct->sorted[a].push_back(e);
            continue;
          }
          if (!spread) continue;
          for (size_t b = 0; b < num_children; ++b) {
            if (part_weights[b] <= kEps || branch_task[b] == nullptr) continue;
            const double w = e.second * part_weights[b] / known;
            if (w > 1e-6) branch_task[b]->sorted[a].emplace_back(e.first, w);
          }
        }
        t.sorted[a] = {};
      }
    }

    // Subtraction setup: reconstruct the largest non-terminal child from
    // the parent block iff scanning it costs more than scanning everything
    // else (terminal siblings included, since they must be scanned to
    // complete the subtraction). Size-based and therefore deterministic.
    int sub = -1;
    size_t sub_size = 0;
    for (size_t i = 0; i < out->tasks.size(); ++i) {
      if (out->tasks[i]->insts.size() > sub_size) {
        sub = static_cast<int>(i);
        sub_size = out->tasks[i]->insts.size();
      }
    }
    size_t terminal_total = 0;
    for (const std::vector<Inst>& insts : terminal_insts) {
      terminal_total += insts.size();
    }
    if (hist_width > 0 && sub >= 0 &&
        sub_size >= kSubtractMinInsts && sub_size > terminal_total) {
      out->sub_task = sub;
      out->parent_hist = std::move(t.hist);
      out->support_insts = std::move(terminal_insts);
    }
    return true;
  }

  // --- node helpers --------------------------------------------------------

  std::unique_ptr<Node> MakeNode(std::vector<double> counts, double weight) {
    auto node = std::make_unique<Node>();
    node->class_counts = std::move(counts);
    node->weight = weight;
    node->majority = MajorityOf(node->class_counts);
    node->expected_error_conf = LeafExpectedErrorConf(
        node->class_counts.data(), node->class_counts.size(), node->weight,
        node->majority, config.confidence_level, config.min_error_confidence);
    nodes_built->Add(1);
    return node;
  }

  /// The stopping rule; the minInst check is the pre-pruning of sec. 5.4.
  bool IsTerminal(const Node& node, int depth) const {
    const double majority_count =
        node.class_counts[static_cast<size_t>(node.majority)];
    const bool pure = majority_count >= node.weight - kEps;
    return pure || depth >= config.max_depth ||
           node.weight < 2.0 * config.min_split_weight ||
           majority_count < min_inst;
  }

  const C45Config& config;
  const Schema& schema;
  const EncodedDataset& cache;
  const int32_t* class_codes;  ///< per row, -1 for null
  const std::vector<int>& base_attrs;
  size_t num_rows;
  size_t nc;
  double min_inst;
  std::vector<AttrPlan> plans;
  size_t hist_width = 0;
  size_t mask_words = 0;
  kernels::SweepScratch sweep;
  std::vector<int32_t> branch;      ///< Expand's per-instance branch scratch
  std::vector<int32_t> row_branch;  ///< the same per row (exact mode)

  obs::Counter* const nodes_built = obs::GetCounter("c45.nodes_built");
  obs::Counter* const histogram_builds =
      obs::GetCounter("c45.histogram_builds");
  obs::Counter* const histogram_subtractions =
      obs::GetCounter("c45.histogram_subtractions");
  obs::Counter* const splits_evaluated =
      obs::GetCounter("c45.splits_evaluated");
  obs::Counter* const sweep_bins = obs::GetCounter("c45.sweep_bins");
  obs::Counter* const sweep_candidates =
      obs::GetCounter("c45.sweep_candidates");
  obs::Counter* const sweep_rescored = obs::GetCounter("c45.sweep_rescored");
};

Status C45Tree::Train(const TrainingData& data) {
  DQ_RETURN_NOT_OK(data.Check());
  num_classes_ = data.encoder().num_classes();
  if (num_classes_ < 1) {
    return Status::FailedPrecondition("encoder reports no classes");
  }
  // Class codes come from the shared cache, so Train encodes nothing.
  const EncodedDataset& cache = *data.encoded;
  const int32_t* class_codes =
      cache.class_codes(static_cast<size_t>(data.class_attr));
  std::vector<Inst> insts;
  insts.reserve(cache.num_rows());
  for (size_t r = 0; r < cache.num_rows(); ++r) {
    if (class_codes[r] >= 0) insts.emplace_back(static_cast<uint32_t>(r), 1.0);
  }
  if (insts.empty()) {
    return Status::FailedPrecondition(
        "no training instances with non-null class value");
  }

  double build_ms = 0.0;
  {
    obs::Span span("c45.build", data.class_attr, &build_ms);
    root_ = C45Grower(config_, data).Run(std::move(insts));
    PruneExpectedErrorConf(root_.get());
    if (config_.pruning == PruningMode::kPessimistic) {
      PrunePessimistic(root_.get());
    }
  }
  // When trees build side by side, the slowest one sets the induce time.
  static obs::Histogram* const build_times = obs::GetHistogram(
      "c45.tree_build_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  build_times->Observe(build_ms);
  compiled_ = Compile();
  obs::GetCounter("c45.tree_nodes")->Add(NodeCount());
  return Status::OK();
}

// Aggregates Def. 9 values bottom-up and, in kExpectedErrorConfidence mode,
// replaces a subtree by a leaf whenever that leads to a higher expected
// error confidence ("integrated pruning", sec. 5.4).
void C45Tree::PruneExpectedErrorConf(Node* node) {
  if (node == nullptr || node->IsLeaf()) return;
  double subtree_exp = 0.0;
  double subtree_weight = 0.0;
  for (std::unique_ptr<Node>& child : node->children) {
    PruneExpectedErrorConf(child.get());
    subtree_exp += child->weight * child->expected_error_conf;
    subtree_weight += child->weight;
  }
  if (subtree_weight > kEps) subtree_exp /= subtree_weight;
  // node->expected_error_conf still holds the leaf value of Def. 9 here
  // (the grower never overwrites it).
  if (config_.pruning == PruningMode::kExpectedErrorConfidence &&
      node->expected_error_conf > subtree_exp + kEps) {
    node->split_attr = -1;
    node->children.clear();
    node->child_weights.clear();
    return;
  }
  node->expected_error_conf = subtree_exp;
}

// ---------------------------------------------------------------------------
// Classic pessimistic pruning (sec. 5.1.2)

double C45Tree::PessimisticErrors(const Node& node) const {
  const double leaf_errors =
      node.weight - node.class_counts[static_cast<size_t>(node.majority)];
  return leaf_errors + C45AddErrs(node.weight, leaf_errors, config_.pruning_cf);
}

void C45Tree::PrunePessimistic(Node* node) {
  if (node == nullptr || node->IsLeaf()) return;
  for (auto& child : node->children) PrunePessimistic(child.get());
  double subtree_errors = 0.0;
  for (const auto& child : node->children) {
    if (child->weight <= kEps) continue;
    if (child->IsLeaf()) {
      subtree_errors += PessimisticErrors(*child);
    } else {
      // Children already pruned; accumulate their leaf estimates.
      std::vector<const Node*> stack{child.get()};
      while (!stack.empty()) {
        const Node* n = stack.back();
        stack.pop_back();
        if (n->IsLeaf()) {
          if (n->weight > kEps) subtree_errors += PessimisticErrors(*n);
        } else {
          for (const auto& c : n->children) stack.push_back(c.get());
        }
      }
    }
  }
  if (PessimisticErrors(*node) <= subtree_errors + 0.1) {
    node->split_attr = -1;
    node->children.clear();
    node->child_weights.clear();
  }
}

// ---------------------------------------------------------------------------
// Classification

void C45Tree::PredictInto(const Node& node, const Row& row, double weight,
                          std::vector<double>* dist, double* support) const {
  if (node.IsLeaf()) {
    if (node.weight > kEps) {
      for (size_t c = 0; c < node.class_counts.size(); ++c) {
        (*dist)[c] += weight * node.class_counts[c] / node.weight;
      }
      *support += weight * node.weight;
    } else {
      // Empty training leaf: fall back to its majority with zero support.
      (*dist)[static_cast<size_t>(node.majority)] += weight;
    }
    return;
  }
  const Value& v = row[static_cast<size_t>(node.split_attr)];
  if (v.is_null()) {
    // Distribute over branches by training fractions (C4.5 missing-value
    // classification).
    if (node.known_weight <= kEps) {
      PredictInto(*node.children[0], row, weight, dist, support);
      return;
    }
    for (size_t b = 0; b < node.children.size(); ++b) {
      if (node.child_weights[b] <= kEps) continue;
      PredictInto(*node.children[b], row,
                  weight * node.child_weights[b] / node.known_weight, dist,
                  support);
    }
    return;
  }
  size_t b;
  if (node.ordered_split) {
    b = v.OrderedValue() <= node.threshold ? 0 : 1;
  } else {
    const int32_t code = v.nominal_code();
    if (code < 0 || static_cast<size_t>(code) >= node.children.size()) {
      PredictInto(*node.children[0], row, weight, dist, support);
      return;
    }
    b = static_cast<size_t>(code);
  }
  PredictInto(*node.children[b], row, weight, dist, support);
}

Prediction C45Tree::Predict(const Row& row) const {
  Prediction out;
  out.distribution.assign(static_cast<size_t>(num_classes_), 0.0);
  if (root_ == nullptr) return out;
  double support = 0.0;
  PredictInto(*root_, row, 1.0, &out.distribution, &support);
  out.support = support;
  double total = 0.0;
  for (double p : out.distribution) total += p;
  if (total > kEps) {
    for (double& p : out.distribution) p /= total;
  }
  return out;
}

CompiledTree C45Tree::Compile() const {
  if (root_ == nullptr) return CompiledTree();
  std::vector<CompiledTree::Node> nodes;
  std::vector<double> leaf_counts;
  // Breadth first: appending a split's children as it is visited keeps
  // them contiguous and after it.
  std::vector<const Node*> order{root_.get()};
  std::vector<double> branch_weights{0.0};
  for (size_t i = 0; i < order.size(); ++i) {
    const Node& node = *order[i];
    CompiledTree::Node out;
    out.branch_weight = branch_weights[i];
    if (node.IsLeaf()) {
      out.first = static_cast<uint32_t>(leaf_counts.size() /
                                        static_cast<size_t>(num_classes_));
      out.majority = node.majority;
      out.weight = node.weight;
      leaf_counts.insert(leaf_counts.end(), node.class_counts.begin(),
                         node.class_counts.end());
    } else {
      out.attr = node.split_attr;
      out.ordered = node.ordered_split;
      out.threshold = node.threshold;
      out.first = static_cast<uint32_t>(order.size());
      out.children = static_cast<uint32_t>(node.children.size());
      out.known_weight = node.known_weight;
      for (size_t b = 0; b < node.children.size(); ++b) {
        order.push_back(node.children[b].get());
        branch_weights.push_back(node.child_weights[b]);
      }
    }
    nodes.push_back(out);
  }
  return CompiledTree(num_classes_, std::move(nodes), std::move(leaf_counts));
}

// ---------------------------------------------------------------------------
// Introspection

namespace {

template <typename NodeT>
void CountNodes(const NodeT& node, size_t depth, size_t* nodes, size_t* leaves,
                size_t* max_depth) {
  ++*nodes;
  *max_depth = std::max(*max_depth, depth);
  if (node.IsLeaf()) {
    ++*leaves;
    return;
  }
  for (const auto& child : node.children) {
    CountNodes(*child, depth + 1, nodes, leaves, max_depth);
  }
}

}  // namespace

size_t C45Tree::NodeCount() const {
  if (root_ == nullptr) return 0;
  size_t nodes = 0, leaves = 0, depth = 0;
  CountNodes(*root_, 1, &nodes, &leaves, &depth);
  return nodes;
}

size_t C45Tree::LeafCount() const {
  if (root_ == nullptr) return 0;
  size_t nodes = 0, leaves = 0, depth = 0;
  CountNodes(*root_, 1, &nodes, &leaves, &depth);
  return leaves;
}

size_t C45Tree::TreeDepth() const {
  if (root_ == nullptr) return 0;
  size_t nodes = 0, leaves = 0, depth = 0;
  CountNodes(*root_, 1, &nodes, &leaves, &depth);
  return depth;
}

std::string C45Tree::ToString(const Schema& schema,
                              const ClassEncoder& encoder) const {
  std::string out;
  if (root_ == nullptr) return "<untrained>";
  std::function<void(const Node&, int)> rec = [&](const Node& node, int indent) {
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    if (node.IsLeaf()) {
      out += pad + "leaf: class " +
             encoder.Label(node.majority, schema) + " (weight " +
             FormatDouble(node.weight, 2) + ")\n";
      return;
    }
    const AttributeDef& def =
        schema.attribute(static_cast<size_t>(node.split_attr));
    for (size_t b = 0; b < node.children.size(); ++b) {
      std::string branch;
      if (node.ordered_split) {
        branch = def.name + (b == 0 ? " <= " : " > ") +
                 FormatDouble(node.threshold, 4);
      } else {
        branch = def.name + " = " + def.categories[b];
      }
      out += pad + branch + ":\n";
      rec(*node.children[b], indent + 1);
    }
  };
  rec(*root_, 0);
  return out;
}

}  // namespace dq
