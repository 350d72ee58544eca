// Instance-based (k-nearest-neighbour) classifier — the "instance based
// classifiers" alternative of sec. 5.
//
// Distance is HEOM-style: overlap (0/1) on nominal attributes,
// range-normalized absolute difference on ordered attributes, and maximal
// distance (1) whenever either value is null. The predicted distribution is
// the (optionally distance-weighted) class histogram of the k nearest
// training instances; the support is k — small by construction, which is
// one reason instance-based deviation detection yields weaker error
// confidences than C4.5 leaves with thousands of supporting instances.

#ifndef DQ_MINING_KNN_H_
#define DQ_MINING_KNN_H_

#include "mining/classifier.h"

namespace dq {

struct KnnConfig {
  int k = 25;
  /// Cap on stored training instances (uniformly strided subsample) to
  /// bound the O(n) scan per prediction.
  size_t max_training_instances = 4000;
  bool distance_weighted = false;
};

class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig config = {}) : config_(config) {}

  Status Train(const TrainingData& data) override;
  Prediction Predict(const Row& row) const override;
  std::string name() const override { return "knn"; }

 private:
  double Distance(const Row& probe, uint32_t train_row) const;

  KnnConfig config_;
  /// The training table: instance-based prediction reads its rows, so it
  /// must outlive the classifier.
  const Table* table_ = nullptr;
  std::vector<int> base_attrs_;
  int num_classes_ = 0;
  std::vector<uint32_t> train_rows_;
  std::vector<int> train_classes_;
  std::vector<double> inv_width_;  // per attr, for ordered normalization
};

}  // namespace dq

#endif  // DQ_MINING_KNN_H_
