// Interactive error review (sec. 3.1 / 5.3).
//
// "The correction of outliers should always be supervised by a quality
// engineer" and "in interactive error correction, the predicted
// distributions of all classifiers that indicate a data error can be useful
// in finding the true reason for a possible error. This is because a
// difference between an observed and predicted value sometimes lays in
// erroneous base attribute values." ExplainRecord gathers every
// classifier's opinion about one record so a quality engineer can decide
// which attribute is actually wrong.

#ifndef DQ_AUDIT_REVIEW_H_
#define DQ_AUDIT_REVIEW_H_

#include <string>
#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief One classifier's view of a record.
struct ClassifierOpinion {
  int class_attr = -1;
  double error_confidence = 0.0;
  int observed_class = -1;  ///< -1 for null
  int predicted_class = -1;
  double support = 0.0;
  std::vector<double> distribution;
};

/// \brief All classifier opinions about one record, strongest first.
struct SuspicionDetail {
  size_t row = 0;
  /// Def. 8 combination over the opinions.
  double combined_confidence = 0.0;
  /// Every classifier whose error confidence is positive, descending.
  std::vector<ClassifierOpinion> dissenting;
  /// Number of classifiers that agree with the record.
  size_t agreeing = 0;
};

/// \brief Evaluates every attribute model of `model` on one record.
Result<SuspicionDetail> ExplainRecord(const AuditModel& model,
                                      const Table& data, size_t row,
                                      const AuditorConfig& config);

/// \brief Renders a detail as a human-readable review sheet: per dissenting
/// classifier the observed value, predicted value, confidence, support and
/// the head of the predicted distribution. The sheet names the record
/// first_row + detail.row: its global row when `data` is a segment.
std::string RenderSuspicionDetail(const SuspicionDetail& detail,
                                  const AuditModel& model, const Table& data,
                                  size_t first_row = 0);

}  // namespace dq

#endif  // DQ_AUDIT_REVIEW_H_
