// Deterministic random number generation.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng so that rule generation, data generation, pollution and audits are
// fully reproducible. Seeds are mixed through SplitMix64 so that adjacent
// user seeds (0, 1, 2, ...) yield decorrelated streams.

#ifndef DQ_COMMON_RANDOM_H_
#define DQ_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace dq {

/// \brief SplitMix64 mixing step; maps any 64-bit seed to a well-mixed value.
uint64_t SplitMix64(uint64_t x);

/// \brief Seedable random engine with convenience draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(SplitMix64(seed)) {}

  /// \brief Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Uniform real in [lo, hi). Finite bounds may be further apart
  /// than DBL_MAX.
  double UniformReal(double lo, double hi);

  /// \brief Uniform real in [0, 1).
  double NextDouble() { return UniformReal(0.0, 1.0); }

  /// \brief Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  double Normal(double mean, double stddev);
  double Exponential(double lambda);

  /// \brief Index drawn from unnormalized non-negative weights.
  /// Returns weights.size() - 1 on degenerate input (all-zero weights use a
  /// uniform fallback).
  size_t WeightedIndex(const std::vector<double>& weights);

  /// \brief Fisher-Yates shuffles a vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Derives an independent child stream (e.g. per record / per rule).
  Rng Fork(uint64_t stream_id);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dq

#endif  // DQ_COMMON_RANDOM_H_
