// Performance parameters of the test environment (sec. 4.3).
//
// Detection is summarized by a 2x2 matrix of (data corrupted?) x (tool's
// opinion). The paper's two quality measures:
//   sensitivity = true positives / corrupted records — "the ratio of the
//     truly found errors by the number of records that have been
//     corrupted"; preferred over recall because it is independent of the
//     prevalence;
//   specificity = true negatives / clean records — "how many of the error
//     free records have been marked as such".
// Correction is summarized by a second 2x2 matrix (correct before/after),
// with improvement ((c+d)-(b+d))/(c+d).

#ifndef DQ_EVAL_METRICS_H_
#define DQ_EVAL_METRICS_H_

#include <string>

#include "audit/auditor.h"
#include "pollution/pipeline.h"

namespace dq {

/// \brief Detection 2x2 matrix (sec. 4.3).
struct DetectionMatrix {
  size_t true_positive = 0;   ///< corrupted and flagged
  size_t false_negative = 0;  ///< corrupted, not flagged
  size_t false_positive = 0;  ///< clean but flagged
  size_t true_negative = 0;   ///< clean, not flagged

  double Sensitivity() const {
    const size_t corrupted = true_positive + false_negative;
    return corrupted == 0 ? 0.0
                          : static_cast<double>(true_positive) /
                                static_cast<double>(corrupted);
  }
  double Specificity() const {
    const size_t clean = true_negative + false_positive;
    return clean == 0 ? 1.0
                      : static_cast<double>(true_negative) /
                            static_cast<double>(clean);
  }
  /// Precision (synonymous with specificity in the paper's terminology is
  /// avoided here; this is the IR precision for reference).
  double Precision() const {
    const size_t flagged = true_positive + false_positive;
    return flagged == 0 ? 0.0
                        : static_cast<double>(true_positive) /
                              static_cast<double>(flagged);
  }

  std::string ToString() const;
};

/// \brief Correction 2x2 matrix (sec. 4.3): record correctness before vs
/// after applying proposed corrections.
struct CorrectionMatrix {
  size_t a = 0;  ///< correct before, correct after
  size_t b = 0;  ///< correct before, incorrect after (damage)
  size_t c = 0;  ///< incorrect before, correct after (repair)
  size_t d = 0;  ///< incorrect before, incorrect after

  /// ((c+d) - (b+d)) / (c+d): relative reduction of the error count.
  double Improvement() const {
    const double before = static_cast<double>(c + d);
    if (before == 0.0) return 0.0;
    return (before - static_cast<double>(b + d)) / before;
  }

  std::string ToString() const;
};

/// \brief Builds the detection matrix by comparing the audit report's flags
/// with the pollution ground truth.
DetectionMatrix EvaluateDetection(const PollutionResult& pollution,
                                  const AuditReport& report);

/// \brief Builds the correction matrix: a dirty record is "correct" when
/// every cell equals its clean origin; corrections are applied per the
/// report's suggestions. Duplicate rows compare against their origin row.
CorrectionMatrix EvaluateCorrection(const Table& clean,
                                    const PollutionResult& pollution,
                                    const AuditReport& report,
                                    const Table& corrected);

/// \brief Convenience: row equality against the clean origin.
bool RowMatchesClean(const Table& clean, const PollutionResult& pollution,
                     const Table& dirty_or_corrected, size_t dirty_row);

}  // namespace dq

#endif  // DQ_EVAL_METRICS_H_
