#include "stats/discretizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/strings.h"

namespace dq {

Result<EqualFrequencyDiscretizer> EqualFrequencyDiscretizer::Fit(
    std::vector<double> sample, int max_bins) {
  std::sort(sample.begin(), sample.end());
  return FitSorted(sample, max_bins);
}

Result<EqualFrequencyDiscretizer> EqualFrequencyDiscretizer::FitSorted(
    const std::vector<double>& sample, int max_bins) {
  if (sample.empty()) {
    return Status::InvalidArgument("cannot fit discretizer on empty sample");
  }
  if (max_bins < 1) {
    return Status::InvalidArgument("max_bins must be >= 1");
  }

  EqualFrequencyDiscretizer d;
  const size_t n = sample.size();
  const size_t bins = std::min<size_t>(static_cast<size_t>(max_bins), n);

  // Candidate cut points at equal-frequency quantiles, skipping duplicates
  // (a cut must fall strictly between two distinct sample values, so equal
  // values always share a bin).
  for (size_t b = 1; b < bins; ++b) {
    const size_t idx = b * n / bins;
    if (idx == 0 || idx >= n) continue;
    const double lo = sample[idx - 1];
    const double hi = sample[idx];
    if (hi > lo) {
      const double cut = std::midpoint(lo, hi);
      if (d.cuts_.empty() || cut > d.cuts_.back()) d.cuts_.push_back(cut);
    }
  }

  // Representatives: median of each bin's members, a sorted run of the
  // sample, so the middle pair is read off directly (Median's value).
  size_t i = 0;
  for (size_t b = 0; b <= d.cuts_.size(); ++b) {
    const double upper =
        b < d.cuts_.size() ? d.cuts_[b] : std::numeric_limits<double>::infinity();
    const size_t begin = i;
    while (i < n && sample[i] <= upper) ++i;
    const size_t count = i - begin;
    const size_t mid = begin + count / 2;
    d.representatives_.push_back(
        count == 0       ? upper
        : count % 2 == 1 ? sample[mid]
                         : std::midpoint(sample[mid - 1], sample[mid]));
  }
  return d;
}

Result<EqualFrequencyDiscretizer> EqualFrequencyDiscretizer::FromParts(
    std::vector<double> cuts, std::vector<double> representatives) {
  if (representatives.empty()) {
    return Status::InvalidArgument("discretizer needs at least one bin");
  }
  if (cuts.size() + 1 != representatives.size()) {
    return Status::InvalidArgument(
        "cut count must be one less than representative count");
  }
  for (size_t i = 1; i < cuts.size(); ++i) {
    if (!(cuts[i - 1] < cuts[i])) {
      return Status::InvalidArgument("cut points must be strictly ascending");
    }
  }
  EqualFrequencyDiscretizer d;
  d.cuts_ = std::move(cuts);
  d.representatives_ = std::move(representatives);
  return d;
}

int EqualFrequencyDiscretizer::BinOf(double x) const {
  // First bin whose upper cut is >= x.
  auto it = std::lower_bound(cuts_.begin(), cuts_.end(), x);
  return static_cast<int>(it - cuts_.begin());
}

std::string EqualFrequencyDiscretizer::BinLabel(int bin) const {
  std::string lo = bin == 0 ? "-inf" : FormatDouble(cuts_[bin - 1], 4);
  std::string hi = bin == static_cast<int>(cuts_.size())
                       ? "+inf"
                       : FormatDouble(cuts_[bin], 4);
  return "(" + lo + ", " + hi + "]";
}

}  // namespace dq
