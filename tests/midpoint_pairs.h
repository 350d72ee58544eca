// Random operands for the split-midpoint tests: every midpoint site must
// return (a + b) / 2 bit for bit wherever that sum cannot overflow.

#ifndef DQ_TESTS_MIDPOINT_PAIRS_H_
#define DQ_TESTS_MIDPOINT_PAIRS_H_

#include <cmath>
#include <utility>

#include "common/random.h"

namespace dq {

/// \brief Two distinct doubles, ascending, with magnitudes spread over
/// [2^-60, 2^1022]: never past DBL_MAX / 2, where std::midpoint is
/// (a + b) / 2.
inline std::pair<double, double> InRangePair(Rng* rng) {
  auto draw = [rng] {
    return rng->UniformReal(-1.0, 1.0) *
           std::ldexp(1.0, static_cast<int>(rng->UniformInt(-60, 1022)));
  };
  const double a = draw();
  double b = draw();
  while (b == a) b = draw();
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace dq

#endif  // DQ_TESTS_MIDPOINT_PAIRS_H_
