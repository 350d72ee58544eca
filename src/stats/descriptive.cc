#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dq {

namespace {

// x * log2(x) for the integers [0, kXLog2TableSize). Entry i is computed
// with the exact expression the slow path uses, so table hits and misses
// are bitwise-identical.
constexpr size_t kXLog2TableSize = 1 << 16;

const double* XLog2Table() {
  static const std::vector<double> table = [] {
    std::vector<double> t(kXLog2TableSize, 0.0);
    for (size_t i = 2; i < kXLog2TableSize; ++i) {
      const double x = static_cast<double>(i);
      t[i] = x * std::log2(x);
    }
    return t;
  }();
  return table.data();
}

}  // namespace

double XLog2X(double x) {
  if (x <= 1.0) {
    // 0 and 1 both map to 0; fractions fall through to the slow path.
    if (x <= 0.0 || x == 1.0) return 0.0;
    return x * std::log2(x);
  }
  if (x < static_cast<double>(kXLog2TableSize)) {
    const size_t i = static_cast<size_t>(x);
    if (static_cast<double>(i) == x) return XLog2Table()[i];
  }
  return x * std::log2(x);
}

double EntropyBits(const double* counts, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] > 0.0) total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] > 0.0) sum += XLog2X(counts[i]);
  }
  const double h = (XLog2X(total) - sum) / total;
  return h > 0.0 ? h : 0.0;
}

double EntropyFromCounts(const std::vector<double>& counts) {
  return EntropyBits(counts.data(), counts.size());
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double SampleStdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(mid), xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(xs.begin(), xs.begin() + static_cast<long>(mid));
  return std::midpoint(lo, hi);
}

}  // namespace dq
