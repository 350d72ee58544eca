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

double CombineErrorConfidences(const std::vector<double>& confidences) {
  double best = 0.0;
  for (double c : confidences) best = std::max(best, c);
  return best;
}

}  // namespace dq
