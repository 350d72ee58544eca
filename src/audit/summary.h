// Per-attribute audit summaries: the monitoring view a data quality
// engineer keeps across loads (fig. 1 role; "product quality monitoring,
// early error detection and analysis, and reporting" is what QUIS serves,
// sec. 3.2).

#ifndef DQ_AUDIT_SUMMARY_H_
#define DQ_AUDIT_SUMMARY_H_

#include <string>
#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief Aggregates of one attribute's flags within a report.
struct AttributeSummary {
  int attr = -1;
  size_t flagged = 0;
  double mean_confidence = 0.0;
  double max_confidence = 0.0;
  size_t null_observations = 0;  ///< flagged records whose observed value is null
};

/// \brief Whole-report aggregates.
struct AuditSummary {
  size_t records = 0;
  size_t flagged = 0;
  double flag_rate = 0.0;
  /// Attributes ranked by flag volume (only attributes with flags appear).
  std::vector<AttributeSummary> by_attribute;
};

/// \brief Builds the summary of a ranked suspicious list over `records`
/// audited records.
AuditSummary SummarizeReport(const std::vector<Suspicion>& suspicious,
                             size_t records);

/// \brief Renders the summary as an aligned text table.
std::string RenderAuditSummary(const AuditSummary& summary,
                               const Schema& schema);

}  // namespace dq

#endif  // DQ_AUDIT_SUMMARY_H_
