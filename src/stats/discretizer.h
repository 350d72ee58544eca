// Equal-frequency discretization (sec. 5): "To allow for the induction of
// decision trees for numerical class attributes, these attributes are
// discretized into equal frequency bins before the induction process."
//
// A fitted discretizer maps an ordered value to a bin index and provides a
// representative value per bin (the median of the training values that fell
// into it) for correction proposals.

#ifndef DQ_STATS_DISCRETIZER_H_
#define DQ_STATS_DISCRETIZER_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace dq {

/// \brief Equal-frequency binning over a 1-D ordered axis.
class EqualFrequencyDiscretizer {
 public:
  /// \brief Fits up to `max_bins` bins over the given (unsorted) sample.
  /// Duplicate-heavy samples may produce fewer bins; at least one bin always
  /// results from a non-empty sample.
  static Result<EqualFrequencyDiscretizer> Fit(std::vector<double> sample,
                                               int max_bins);

  /// \brief Fit over a sample already sorted ascending, e.g. the values
  /// of a presorted column; the same bins Fit gives the unsorted sample.
  static Result<EqualFrequencyDiscretizer> FitSorted(
      const std::vector<double>& sample, int max_bins);

  /// \brief Reconstructs a discretizer from its parts (deserialization).
  /// `cuts` must be strictly ascending and one shorter than `reps`.
  static Result<EqualFrequencyDiscretizer> FromParts(
      std::vector<double> cuts, std::vector<double> representatives);

  /// \brief Bin index for a value (0-based; values beyond the outermost cut
  /// points fall into the first/last bin).
  int BinOf(double x) const;

  int num_bins() const { return static_cast<int>(representatives_.size()); }

  /// \brief Representative value (median of training members) of a bin.
  double Representative(int bin) const { return representatives_.at(bin); }

  /// \brief Upper cut points; bin i covers (cuts[i-1], cuts[i]].
  const std::vector<double>& cut_points() const { return cuts_; }

  /// \brief Human-readable label, e.g. "(3.5, 7.25]".
  std::string BinLabel(int bin) const;

 private:
  std::vector<double> cuts_;             // ascending, size = num_bins - 1
  std::vector<double> representatives_;  // size = num_bins
};

}  // namespace dq

#endif  // DQ_STATS_DISCRETIZER_H_
