// Per-record views of a ranked AuditReport, for tests that compare what
// each record scored. An audit at min_error_confidence = 0 lists exactly
// the records whose Def. 8 confidence is nonzero, so a record the list
// leaves out scored 0 and names no attribute.

#ifndef DQ_TESTS_REPORT_ROWS_H_
#define DQ_TESTS_REPORT_ROWS_H_

#include <gtest/gtest.h>

#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief The suspicion of each of `rows` records, nullptr for a record the
/// ranked list leaves out. Expects every listed row in range, once, with
/// its flag bit set.
inline std::vector<const Suspicion*> SuspicionsByRow(const AuditReport& report,
                                                     size_t rows) {
  std::vector<const Suspicion*> by_row(rows, nullptr);
  EXPECT_EQ(report.flagged.size(), rows);
  for (const Suspicion& s : report.suspicious) {
    EXPECT_LT(s.row, rows);
    if (s.row >= rows) continue;
    EXPECT_EQ(by_row[s.row], nullptr) << "row " << s.row << " listed twice";
    EXPECT_TRUE(report.IsFlagged(s.row)) << "row " << s.row;
    by_row[s.row] = &s;
  }
  return by_row;
}

/// \brief A record's Def. 8 confidence: 0 when the list leaves it out.
inline double ConfidenceAt(const std::vector<const Suspicion*>& by_row,
                           size_t row) {
  return by_row[row] == nullptr ? 0.0 : by_row[row]->error_confidence;
}

/// \brief Expects two ranked lists to hold the same suspicions in the same
/// order, field for field.
inline void ExpectSameSuspicions(const std::vector<Suspicion>& a,
                                 const std::vector<Suspicion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << "rank " << i;
    EXPECT_EQ(a[i].error_confidence, b[i].error_confidence) << "rank " << i;
    EXPECT_EQ(a[i].attr, b[i].attr) << "rank " << i;
    EXPECT_TRUE(a[i].observed.StrictEquals(b[i].observed)) << "rank " << i;
    EXPECT_TRUE(a[i].suggestion.StrictEquals(b[i].suggestion)) << "rank " << i;
    EXPECT_EQ(a[i].support, b[i].support) << "rank " << i;
  }
}

/// \brief The same for two reports, which must also flag the same records.
inline void ExpectSameSuspicions(const AuditReport& a, const AuditReport& b) {
  EXPECT_EQ(a.flagged, b.flagged);
  ExpectSameSuspicions(a.suspicious, b.suspicious);
}

}  // namespace dq

#endif  // DQ_TESTS_REPORT_ROWS_H_
