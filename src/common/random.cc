#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dq {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::UniformReal(double lo, double hi) {
  if (std::isfinite(lo) && std::isfinite(hi) && !std::isfinite(hi - lo)) {
    // The distribution needs hi - lo <= DBL_MAX. Halving both ends is
    // exact (they are far from the subnormals), so is doubling the draw;
    // rounding inside the distribution can still reach hi itself.
    std::uniform_real_distribution<double> half(lo / 2, hi / 2);
    const double x = 2 * half(engine_);
    return x < hi ? x : std::nextafter(hi, lo);
  }
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double lambda) {
  std::exponential_distribution<double> dist(lambda);
  return dist(engine_);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) {
    return static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(weights.size()) - 1));
  }
  double r = UniformReal(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      acc += weights[i];
      if (r < acc) return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t stream_id) {
  uint64_t base = engine_();
  return Rng(SplitMix64(base ^ SplitMix64(stream_id)));
}

}  // namespace dq
