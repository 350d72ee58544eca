#include "mining/compiled_tree.h"

#include "mining/classifier.h"

namespace dq {

CompiledTree::CompiledTree(int num_classes, std::vector<Node> nodes,
                           std::vector<double> leaf_counts)
    : num_classes_(num_classes),
      nodes_(std::move(nodes)),
      leaf_counts_(std::move(leaf_counts)) {
  size_t leaves = 0;
  splits_.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    Split& split = splits_[i];
    if (node.is_leaf()) {
      ++leaves;
      split.first = static_cast<uint32_t>(i);
      continue;
    }
    split.threshold = node.threshold;
    split.first = node.first;
    split.attr = static_cast<uint32_t>(node.attr);
    split.children = node.children;
    split.ordered = node.ordered;
  }
  leaf_dist_.assign(leaf_counts_.size(), 0.0);
  leaf_class_.assign(leaves, -1);
  leaf_support_.assign(leaves, 0.0);
  // A record that reaches a leaf along known values arrives with weight 1,
  // so its prediction is this leaf's alone: the same accumulation and
  // normalization the walk does, done once here.
  for (const Node& node : nodes_) {
    if (!node.is_leaf()) continue;
    double* dist = &leaf_dist_[static_cast<size_t>(node.first) * Width()];
    AccumulateLeaf(node, 1.0, dist, &leaf_support_[node.first]);
    Normalize(dist);
    leaf_class_[node.first] = ArgMaxClass(dist, Width());
  }
}

size_t CompiledTree::CountRules() const {
  size_t rules = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf() && node.weight > 0.0) ++rules;
  }
  return rules;
}

}  // namespace dq
