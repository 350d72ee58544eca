// CompiledTree: a trained C4.5 tree flattened into one node array. It is
// the only tree an AuditModel keeps: scoring, rule export and review walk
// it, and `dqmodel v2` persists it. C45Tree compiles it once at the end of
// Train and keeps its pointer tree as the reference implementation of
// Predict, which tests use as the scorer's oracle.
//
// Nodes are laid out breadth first: the root is node 0 and the children of
// every split are contiguous and come after it, so a walk only moves
// forward. A split holds its attribute and either a `<=` threshold (two
// children: a known value <= threshold takes the first) or a nominal child
// base (category code c takes child first + c). Every node carries the
// known-value training weight its parent's split sent down its branch, and
// every split the total of those weights: C4.5 scores a record whose split
// value is null by following every branch with that branch's share of the
// known weight (sec. 5.1). Each leaf holds its training weight, majority
// class and class counts.
//
// Beside the nodes the tree keeps a compact split array for the scorer's
// descent (Split below): per node only what picks the next node, 24 bytes
// instead of a node's 56.

#ifndef DQ_MINING_COMPILED_TREE_H_
#define DQ_MINING_COMPILED_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dq {

/// \brief Training weights at or below this count as zero: C4.5 skips
/// such branches when it spreads a null and scores such leaves by their
/// majority alone.
inline constexpr double kTreeWeightEpsilon = 1e-9;

class CompiledTree {
 public:
  struct Node {
    int32_t attr = -1;    ///< split attribute; -1 marks a leaf
    bool ordered = false; ///< `<=` split; otherwise a nominal split
    uint32_t first = 0;   ///< split: first child; leaf: leaf index
    uint32_t children = 0;       ///< split: number of children
    int32_t majority = 0;        ///< leaf: majority class
    double threshold = 0.0;      ///< `<=` split: the threshold
    double known_weight = 0.0;   ///< split: weight with a known value
    double branch_weight = 0.0;  ///< known weight of the branch to here
    double weight = 0.0;         ///< leaf: training weight (support)

    bool is_leaf() const { return attr < 0; }
  };

  /// \brief The descent's view of node i: where a record whose value of
  /// `attr` is known goes next (ChildFor). A leaf is stored as a nominal
  /// split with no children whose first child is itself, so a walk that
  /// reaches it stays there.
  struct Split {
    double threshold = 0.0;  ///< `<=` split: the threshold
    uint32_t first = 0;      ///< first child; a leaf: i itself
    uint32_t attr = 0;       ///< attribute read (0 for a leaf)
    uint32_t children = 0;   ///< nominal split: child count (0 for a leaf)
    bool ordered = false;    ///< `<=` split; otherwise nominal (or a leaf)
  };

  CompiledTree() = default;

  /// \brief Takes the nodes in the layout above and the class counts of
  /// every leaf, `num_classes` per leaf in leaf-index order, and derives
  /// what a record reaching each leaf is predicted. The caller has
  /// validated the layout.
  CompiledTree(int num_classes, std::vector<Node> nodes,
               std::vector<double> leaf_counts);

  int num_classes() const { return num_classes_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// \brief One Split per node, in node order.
  const std::vector<Split>& splits() const { return splits_; }
  size_t num_leaves() const { return leaf_support_.size(); }

  /// \brief Class counts of a leaf (num_classes() entries).
  const double* leaf_counts(uint32_t leaf) const {
    return &leaf_counts_[static_cast<size_t>(leaf) * Width()];
  }
  /// \brief The normalized distribution, predicted class and support
  /// C45Tree::Predict returns for a record that reaches `leaf` along known
  /// split values.
  const double* leaf_distribution(uint32_t leaf) const {
    return &leaf_dist_[static_cast<size_t>(leaf) * Width()];
  }
  int leaf_class(uint32_t leaf) const { return leaf_class_[leaf]; }
  double leaf_support(uint32_t leaf) const { return leaf_support_[leaf]; }

  /// \brief Leaves with positive training weight: the rules of the
  /// decision tree -> rule set transformation (sec. 5.4).
  size_t CountRules() const;

  /// \brief Adds `weight` times a leaf's class distribution to `dist` and
  /// `weight` times its training weight to `support`: one step of C4.5's
  /// weighted leaf combination. An empty leaf adds `weight` to its
  /// majority class and nothing to the support.
  void AccumulateLeaf(const Node& leaf, double weight, double* dist,
                      double* support) const {
    if (leaf.weight > kTreeWeightEpsilon) {
      const double* counts = leaf_counts(leaf.first);
      for (size_t c = 0; c < Width(); ++c) {
        dist[c] += weight * counts[c] / leaf.weight;
      }
      *support += weight * leaf.weight;
    } else {
      dist[static_cast<size_t>(leaf.majority)] += weight;
    }
  }

  /// \brief Scales an accumulated distribution to sum to one (left alone
  /// when it sums to zero).
  void Normalize(double* dist) const {
    double total = 0.0;
    for (size_t c = 0; c < Width(); ++c) total += dist[c];
    if (total > kTreeWeightEpsilon) {
      for (size_t c = 0; c < Width(); ++c) dist[c] /= total;
    }
  }

 private:
  size_t Width() const { return static_cast<size_t>(num_classes_); }

  int num_classes_ = 0;
  std::vector<Node> nodes_;
  std::vector<Split> splits_;
  std::vector<double> leaf_counts_;
  std::vector<double> leaf_dist_;
  std::vector<int> leaf_class_;
  std::vector<double> leaf_support_;
};

}  // namespace dq

#endif  // DQ_MINING_COMPILED_TREE_H_
