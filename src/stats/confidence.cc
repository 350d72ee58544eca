#include "stats/confidence.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dq {

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's rational approximation; |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

double ZForConfidence(double level) {
  assert(level > 0.0 && level < 1.0);
  return NormalQuantile(0.5 + level / 2.0);
}

Interval WilsonInterval(double p, double n, double level) {
  if (n <= 0.0) return Interval{};  // vacuous [0, 1]
  return WilsonIntervalAtZ(p, n, ZForConfidence(level));
}

Interval WilsonIntervalAtZ(double p, double n, double z) {
  Interval out;
  if (n <= 0.0) return out;  // vacuous [0, 1]
  p = std::clamp(p, 0.0, 1.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  out.left = std::max(0.0, center - half);
  out.right = std::min(1.0, center + half);
  return out;
}

double LeftBound(double p, double n, double level) {
  return WilsonInterval(p, n, level).left;
}

double RightBound(double p, double n, double level) {
  return WilsonInterval(p, n, level).right;
}

double C45AddErrs(double n, double errors, double cf) {
  // Port of the classic C4.5 / Weka Stats.addErrs logic.
  if (cf > 0.5) cf = 0.5;
  if (n <= 0.0) return 0.0;
  if (errors < 1.0) {
    // Base case: upper bound from CF^(1/n), interpolated below one error.
    double base = n * (1.0 - std::pow(cf, 1.0 / n));
    if (errors == 0.0) return base;
    return base + errors * (C45AddErrs(n, 1.0, cf) - base);
  }
  if (errors + 0.5 >= n) {
    return std::max(n - errors, 0.0);
  }
  // Normal approximation with continuity correction.
  const double z = NormalQuantile(1.0 - cf);
  const double f = (errors + 0.5) / n;
  const double z2 = z * z;
  const double r =
      (f + z2 / (2.0 * n) +
       z * std::sqrt(f / n - f * f / n + z2 / (4.0 * n * n))) /
      (1.0 + z2 / n);
  return r * n - errors;
}

double C45PessimisticErrorRate(double n, double errors, double cf) {
  if (n <= 0.0) return 1.0;
  return std::min(1.0, (errors + C45AddErrs(n, errors, cf)) / n);
}

}  // namespace dq
