// OneR classification-rule inducer — the "classification rule inducers"
// alternative of sec. 5.
//
// Holte's 1R: pick the single base attribute whose value -> majority-class
// rule table has the lowest training error; ordered base attributes are
// discretized into equal-frequency bins first. The prediction returns the
// class distribution of the matching bucket together with the bucket's
// instance count as support, so it plugs directly into the error-confidence
// framework.

#ifndef DQ_MINING_ONER_H_
#define DQ_MINING_ONER_H_

#include <optional>

#include "mining/classifier.h"
#include "stats/discretizer.h"

namespace dq {

struct OneRConfig {
  int numeric_bins = 10;  ///< bins for ordered base attributes
  /// A bucket needs at least this many instances; smaller buckets fall back
  /// to the overall class distribution.
  double min_bucket_weight = 1.0;
};

class OneRClassifier : public Classifier {
 public:
  explicit OneRClassifier(OneRConfig config = {}) : config_(config) {}

  Status Train(const TrainingData& data) override;
  Prediction Predict(const Row& row) const override;
  std::string name() const override { return "oner"; }

  /// \brief Attribute the rule table was built on (-1 before training).
  int chosen_attr() const { return chosen_attr_; }

 private:
  /// Bucket index of a value for the chosen attribute; -1 for null.
  int BucketOf(const Value& v) const;

  OneRConfig config_;
  int num_classes_ = 0;
  int chosen_attr_ = -1;
  bool chosen_is_nominal_ = true;
  std::optional<EqualFrequencyDiscretizer> chosen_disc_;
  /// counts[bucket][class]; last bucket is the null bucket.
  std::vector<std::vector<double>> bucket_counts_;
  std::vector<double> overall_counts_;
  double overall_weight_ = 0.0;
};

}  // namespace dq

#endif  // DQ_MINING_ONER_H_
