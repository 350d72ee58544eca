#include "audit/error_confidence.h"

#include <algorithm>

#include "stats/confidence.h"

namespace dq {

double ErrorConfidence(const Prediction& prediction, int observed_class,
                       double confidence_level, bool flag_nulls) {
  return ErrorConfidence(prediction.distribution.data(),
                         prediction.distribution.size(),
                         prediction.PredictedClass(), prediction.support,
                         observed_class, confidence_level, flag_nulls);
}

double ErrorConfidence(const double* distribution, size_t num_classes,
                       int predicted, double support, int observed_class,
                       double confidence_level, bool flag_nulls) {
  if (predicted < 0 || support <= 0.0) return 0.0;
  if (observed_class == predicted) return 0.0;
  if (observed_class < 0 && !flag_nulls) return 0.0;

  const double p_pred = distribution[predicted];
  const double p_obs =
      observed_class < 0 || static_cast<size_t>(observed_class) >= num_classes
          ? 0.0
          : distribution[observed_class];
  const double conf = LeftBound(p_pred, support, confidence_level) -
                      RightBound(p_obs, support, confidence_level);
  return std::max(0.0, conf);
}

std::vector<double> LeafErrorConfidences(const CompiledTree& tree,
                                         double confidence_level,
                                         bool flag_nulls) {
  const size_t width = static_cast<size_t>(tree.num_classes());
  std::vector<double> table(tree.num_leaves() * (width + 1), 0.0);
  // The arithmetic of ErrorConfidence with z = ZForConfidence(level)
  // computed once: LeftBound and RightBound are WilsonInterval, which is
  // WilsonIntervalAtZ at that z. Every class the leaf never saw (and a null
  // observation) is scored against p = 0, so those share one rightBound.
  const double z = ZForConfidence(confidence_level);
  for (uint32_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
    const int predicted = tree.leaf_class(leaf);
    const double support = tree.leaf_support(leaf);
    if (predicted < 0 || support <= 0.0) continue;  // never flags
    const double* dist = tree.leaf_distribution(leaf);
    const double left = WilsonIntervalAtZ(dist[predicted], support, z).left;
    const double zero_right = WilsonIntervalAtZ(0.0, support, z).right;
    double* row = &table[leaf * (width + 1)];
    if (flag_nulls) row[0] = std::max(0.0, left - zero_right);
    for (size_t c = 0; c < width; ++c) {
      if (static_cast<int>(c) == predicted) continue;
      const double right =
          dist[c] == 0.0 ? zero_right
                         : WilsonIntervalAtZ(dist[c], support, z).right;
      row[c + 1] = std::max(0.0, left - right);
    }
  }
  return table;
}

double CombineErrorConfidences(const std::vector<double>& confidences) {
  double best = 0.0;
  for (double c : confidences) best = std::max(best, c);
  return best;
}

}  // namespace dq
