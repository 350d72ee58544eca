// C4.5 decision tree induction and classification (sec. 5.1), with the
// data-auditing adjustments of sec. 5.4.
//
// Implemented faithfully to the paper's description:
//  * ID3 information gain refined to C4.5's gain ratio ("C4.5 divides the
//    information gain by split information"), including the restriction to
//    splits with at least average gain;
//  * numerical base attributes through binary threshold splits over the
//    occurring values;
//  * missing-value handling by distributing training instances over
//    branches with fractional weights and combining leaf distributions at
//    classification time;
//  * classic pessimistic-error subtree replacement (sec. 5.1.2) driven by
//    a parameterizable confidence, kept as the unadjusted baseline;
//  * the paper's adjustments (sec. 5.4): minInst pre-pruning derived from
//    the user's minimal error confidence, and integrated pruning by
//    *expected error confidence* (Def. 9), applied bottom-up to the grown
//    tree.
//
// Expected-error-confidence semantics: errorConf values below the user's
// minimal error confidence "are mostly not useful in reality" (sec. 5.4),
// so they contribute zero to Def. 9 here; a subtree is replaced by a leaf
// exactly when the leaf attains a strictly higher expected error
// confidence, i.e. when partitioning does not increase the error detection
// capability.

#ifndef DQ_MINING_C45_H_
#define DQ_MINING_C45_H_

#include <memory>

#include "mining/classifier.h"
#include "mining/compiled_tree.h"

namespace dq {

enum class PruningMode {
  kNone,
  kPessimistic,              ///< classic C4.5 subtree replacement
  kExpectedErrorConfidence,  ///< the paper's integrated Def. 9 pruning
};

const char* PruningModeToString(PruningMode mode);

/// How a node scores an ordered attribute. Both modes grow the tree with
/// one grower (c45.cc), depth first, and share everything else: node
/// statistics, nominal scoring, split selection, the partition and pruning.
enum class SplitMode {
  /// Histogram split evaluation (LightGBM-style): ordered attributes are
  /// bucketed once per table into <= kMaxHistogramBins equal-frequency bins
  /// (EncodedDataset::bins) and every node evaluates thresholds by scanning
  /// (bin x class) histograms, with sibling histograms reconstructed by
  /// subtraction (parent - scanned children = largest child). Identical
  /// trees to kExact whenever every ordered attribute has at most
  /// kMaxHistogramBins distinct values; statistically equivalent audits
  /// otherwise.
  kHistogram,
  /// The exact SLIQ row sweep, the histogram evaluator's reference: every
  /// distinct value boundary is a candidate threshold. Each node carries
  /// value-ordered instance lists, filtered once from
  /// EncodedDataset::sort_order and partitioned stably at every split, so
  /// no node ever sorts.
  kExact,
};

const char* SplitModeToString(SplitMode mode);

struct C45Config {
  /// Minimum weight of at least two branches of any split (C4.5 MINOBJS).
  double min_split_weight = 2.0;

  /// Confidence for the classic pessimistic error bound (C4.5 CF).
  double pruning_cf = 0.25;

  /// Two-sided confidence level for leftBound/rightBound in error
  /// confidences (Def. 7/9); "the confidence level of this interval can be
  /// parameterized".
  double confidence_level = 0.95;

  PruningMode pruning = PruningMode::kExpectedErrorConfidence;

  /// The user's minimal confidence for detected errors; derives the
  /// minInst pre-pruning threshold and truncates Def. 9 contributions.
  /// "Low error confidence values are mostly not useful in reality"
  /// (sec. 5.4): without the truncation, the integrated pruning prefers
  /// mixed leaves (which flag weakly) over pure splits (which flag nothing
  /// on training data) and collapses genuine structure, so a positive
  /// threshold is the intended operating regime. Set 0 only together with
  /// PruningMode::kPessimistic or kNone.
  double min_error_confidence = 0.8;

  /// Hard recursion cap (safety; C4.5 trees on audit data stay shallow).
  int max_depth = 40;

  /// Gain ratio (C4.5) vs plain information gain (ID3). Numeric splits
  /// always carry the release-8 MDL correction (gain -= log2(distinct-1)/n).
  bool use_gain_ratio = true;

  /// Split evaluator: histogram scans (default) or the exact row sweep.
  SplitMode split_mode = SplitMode::kHistogram;
};

/// \brief Smallest number of single-class instances a leaf needs before a
/// deviating record can reach `min_conf` error confidence: the minInst of
/// sec. 5.4 ("the system can easily calculate the minimal number minInst of
/// instances of one class that have to occur in a leaf").
double MinInstForConfidence(double min_conf, double confidence_level);

/// \brief Def. 9 value of a leaf of training weight `weight`: over its
/// `num_classes` class counts, each class's relative frequency times the
/// error confidence of observing it (below `min_conf` counted as zero).
/// Tree pruning and the rule export of sec. 5.4 share it.
double LeafExpectedErrorConf(const double* counts, size_t num_classes,
                             double weight, int majority, double level,
                             double min_conf);

/// \brief One condition along a root-to-leaf path.
struct SplitCondition {
  int attr = -1;
  enum class Kind { kCategory, kLessEq, kGreater } kind = Kind::kCategory;
  int32_t category = 0;
  double threshold = 0.0;

  std::string ToString(const Schema& schema) const;
};

/// \brief C4.5 decision tree classifier.
class C45Tree : public Classifier {
 public:
  explicit C45Tree(C45Config config = {});
  ~C45Tree() override;
  C45Tree(C45Tree&&) noexcept;
  C45Tree& operator=(C45Tree&&) noexcept;

  Status Train(const TrainingData& data) override;
  /// \brief Walks the pointer tree; the reference implementation the
  /// compiled tree's scoring kernel is tested against.
  Prediction Predict(const Row& row) const override;
  std::string name() const override { return "c4.5"; }

  const C45Config& config() const { return config_; }

  size_t NodeCount() const;
  size_t LeafCount() const;
  size_t TreeDepth() const;

  /// \brief The flat form of the trained tree, the only one an audit model
  /// keeps (empty before Train).
  const CompiledTree& compiled() const { return compiled_; }

  /// \brief Pretty-prints the tree; `encoder` labels the leaf classes (the
  /// one the tree was trained with, e.g. AttributeModel::encoder).
  std::string ToString(const Schema& schema,
                       const ClassEncoder& encoder) const;

 private:
  struct Node;
  friend struct C45Grower;  // grows the tree in both split modes

  void PruneExpectedErrorConf(Node* node);
  double PessimisticErrors(const Node& node) const;
  void PrunePessimistic(Node* node);
  void PredictInto(const Node& node, const Row& row, double weight,
                   std::vector<double>* dist, double* support) const;
  CompiledTree Compile() const;

  C45Config config_;
  int num_classes_ = 0;
  std::unique_ptr<Node> root_;
  CompiledTree compiled_;
};

}  // namespace dq

#endif  // DQ_MINING_C45_H_
