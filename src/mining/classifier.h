// The classifier abstraction of the multiple classification / regression
// approach (sec. 5).
//
// "For each attribute in the relation to be audited, a classifier is
// induced that describes the dependency of this class attribute from the
// other attributes (called base attributes)." Every classifier must output
// a predicted class *distribution* together with the number of training
// instances the prediction is based on — exactly the two quantities the
// error confidence measure (Def. 7) needs: "the error confidence measure
// can be used with each classifier that both outputs a predicted class
// distribution and the number of training instances this prediction is
// based on."

#ifndef DQ_MINING_CLASSIFIER_H_
#define DQ_MINING_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mining/class_encoder.h"
#include "table/table.h"

namespace dq {

class EncodedDataset;
class ThreadPool;

/// \brief Index of the largest positive entry of `dist` (the first on
/// ties), -1 when none is positive.
int ArgMaxClass(const double* dist, size_t num_classes);

/// \brief A classifier's answer for one record.
struct Prediction {
  /// Probability per class index; sums to 1 when support > 0.
  std::vector<double> distribution;
  /// Number of (weighted) training instances behind the distribution.
  double support = 0.0;

  /// \brief argmax class, -1 if the distribution is empty/zero.
  int PredictedClass() const {
    return ArgMaxClass(distribution.data(), distribution.size());
  }

  /// \brief Probability of a class (0 for out-of-range indices).
  double ProbabilityOf(int cls) const {
    return cls >= 0 && static_cast<size_t>(cls) < distribution.size()
               ? distribution[static_cast<size_t>(cls)]
               : 0.0;
  }
};

/// \brief Training problem handed to a classifier.
struct TrainingData {
  const Table* table = nullptr;
  int class_attr = -1;
  std::vector<int> base_attrs;
  const ClassEncoder* encoder = nullptr;

  /// Optional audit-wide encode cache built over `table` (column views,
  /// presort orders, class codes). When set, `encoder` must be the cache's
  /// own encoder for `class_attr` so cached class codes stay consistent.
  /// Classifiers that understand the cache skip their per-Train encode and
  /// sort work; others ignore it. Results are identical either way.
  const EncodedDataset* encoded = nullptr;

  /// Optional worker pool for intra-Train parallelism (the breadth-wise
  /// node frontier of histogram-mode C4.5). Classifiers that cannot use it
  /// ignore it; results are bitwise-identical with and without a pool and
  /// for every pool size (pre-assigned result slots, deterministic
  /// reduction order). The pool must outlive the Train call.
  ThreadPool* pool = nullptr;

  Status Check() const;
};

/// \brief Dependency-model inducer interface (decision tree, naive Bayes,
/// instance-based, rule inducer, ...).
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual Status Train(const TrainingData& data) = 0;

  /// \brief Class distribution + support for a record (row of the same
  /// schema as the training table).
  virtual Prediction Predict(const Row& row) const = 0;

  virtual std::string name() const = 0;
};

/// \brief Factory signature so audit configurations can choose inducers.
using ClassifierFactory = std::unique_ptr<Classifier> (*)();

}  // namespace dq

#endif  // DQ_MINING_CLASSIFIER_H_
