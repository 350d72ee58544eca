// Error confidence (sec. 5.2, Definitions 7 and 8).
//
// Definition 7: errorConf(P, c) = max(0, leftBound(P(c_hat), n)
//                                        - rightBound(P(c), n))
// where P is the predicted class distribution, c_hat the predicted class,
// c the observed class, and n the number of training instances the
// prediction is based on. Definition 8 combines per-classifier confidences
// by taking their maximum (adding them, as Hipp does for association rules,
// is "only valid if all rules predict values for the same attributes").

#ifndef DQ_AUDIT_ERROR_CONFIDENCE_H_
#define DQ_AUDIT_ERROR_CONFIDENCE_H_

#include <vector>

#include "mining/classifier.h"
#include "mining/compiled_tree.h"

namespace dq {

/// \brief Definition 7 for an observed class index. An observed class of -1
/// (null value) is scored as P(c) = 0 when `flag_nulls` is set, and as 0
/// (never flagged) otherwise.
double ErrorConfidence(const Prediction& prediction, int observed_class,
                       double confidence_level, bool flag_nulls = true);

/// \brief Definition 7 on a bare distribution, as the scoring kernel
/// calls it per record: `predicted` is ArgMaxClass of `distribution`.
double ErrorConfidence(const double* distribution, size_t num_classes,
                       int predicted, double support, int observed_class,
                       double confidence_level, bool flag_nulls);

/// \brief Definition 7 for a record that reaches a leaf of `tree` along
/// known split values, for every leaf and observed class: W + 1 entries per
/// leaf in leaf order (W = tree.num_classes()), entry 0 for a null observed
/// class and entry c + 1 for class c. Each entry is bitwise what
/// ErrorConfidence returns for the leaf's distribution, predicted class and
/// support; a record's score is then one lookup instead of two Wilson
/// bounds.
std::vector<double> LeafErrorConfidences(const CompiledTree& tree,
                                         double confidence_level,
                                         bool flag_nulls);

/// \brief Definition 8: the maximum of the per-classifier confidences.
double CombineErrorConfidences(const std::vector<double>& confidences);

}  // namespace dq

#endif  // DQ_AUDIT_ERROR_CONFIDENCE_H_
