// Confidence bounds for Bernoulli proportions.
//
// The paper's error confidence (Def. 7), expected error confidence (Def. 9)
// and pessimistic classification error (sec. 5.1.2) are all built on
// leftBound(p, n) / rightBound(p, n): the bounds of the confidence interval
// for a true occurrence probability given an observed relative frequency p
// over a sample of size n. We use Wilson score intervals, which behave
// sensibly at p = 0 / p = 1 and small n; the classic C4.5 pruning bound
// (Quinlan's "AddErrs") is provided separately for the unadjusted-C4.5
// baseline.

#ifndef DQ_STATS_CONFIDENCE_H_
#define DQ_STATS_CONFIDENCE_H_

#include <cstddef>

namespace dq {

/// \brief Two-sided z quantile for a confidence level in (0, 1); e.g.
/// 0.95 -> 1.95996.
double ZForConfidence(double level);

/// \brief Quantile (inverse CDF) of the standard normal distribution.
/// `p` must lie in (0, 1).
double NormalQuantile(double p);

struct Interval {
  double left = 0.0;
  double right = 1.0;
};

/// \brief Wilson score interval for observed proportion p over n trials at
/// two-sided confidence `level`. n == 0 yields the vacuous [0, 1].
Interval WilsonInterval(double p, double n, double level);

/// \brief The same interval for a precomputed z = ZForConfidence(level):
/// WilsonInterval delegates here, so callers that evaluate many bounds at
/// one level compute the quantile once and get the same bits.
Interval WilsonIntervalAtZ(double p, double n, double z);

/// \brief leftBound(p, n): lower Wilson bound (Def. 7 / Def. 9).
double LeftBound(double p, double n, double level);

/// \brief rightBound(p, n): upper Wilson bound (Def. 7 / sec. 5.1.2).
double RightBound(double p, double n, double level);

/// \brief C4.5's pessimistic upper bound on the error *count*: given
/// `errors` misclassified out of `n` training instances at a leaf and a
/// pruning confidence CF (C4.5 default 0.25), returns the number of
/// additional errors to charge. Mirrors Quinlan's AddErrs.
double C45AddErrs(double n, double errors, double cf);

/// \brief Pessimistic error *rate* at a leaf per classic C4.5:
/// (errors + AddErrs) / n.
double C45PessimisticErrorRate(double n, double errors, double cf);

}  // namespace dq

#endif  // DQ_STATS_CONFIDENCE_H_
