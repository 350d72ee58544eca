// Naive Bayes classifier — one of the alternatives the paper evaluated for
// the QUIS domain before settling on C4.5 (sec. 5: "we evaluated different
// alternatives (instance based classifiers, naive Bayes classifiers,
// classification rule inducers, and decision trees)").
//
// Nominal base attributes use Laplace-smoothed conditional frequencies;
// ordered base attributes use per-class Gaussians. Missing base values are
// skipped (their likelihood factor is 1). The prediction's support is the
// training weight of the predicted posterior's evidence (all instances with
// known class), satisfying the Def. 7 contract.

#ifndef DQ_MINING_NAIVE_BAYES_H_
#define DQ_MINING_NAIVE_BAYES_H_

#include "mining/classifier.h"

namespace dq {

struct NaiveBayesConfig {
  double laplace = 1.0;  ///< additive smoothing for nominal likelihoods
  /// Variance floor (fraction of domain width, squared) so degenerate
  /// Gaussians cannot produce infinite densities.
  double min_stddev_fraction = 0.01;
};

class NaiveBayesClassifier : public Classifier {
 public:
  explicit NaiveBayesClassifier(NaiveBayesConfig config = {})
      : config_(config) {}

  Status Train(const TrainingData& data) override;
  Prediction Predict(const Row& row) const override;
  std::string name() const override { return "naive-bayes"; }

 private:
  struct NominalModel {
    // counts[class][category]
    std::vector<std::vector<double>> counts;
    std::vector<double> class_totals;
  };
  struct GaussianModel {
    std::vector<double> mean;
    std::vector<double> stddev;
    std::vector<double> count;
  };

  NaiveBayesConfig config_;
  std::vector<int> base_attrs_;
  int num_classes_ = 0;
  double total_weight_ = 0.0;
  std::vector<double> priors_;  // class counts
  std::vector<NominalModel> nominal_;    // indexed by attr
  std::vector<GaussianModel> gaussian_;  // indexed by attr
  std::vector<bool> attr_is_nominal_;
};

}  // namespace dq

#endif  // DQ_MINING_NAIVE_BAYES_H_
