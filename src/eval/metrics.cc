#include "eval/metrics.h"

#include "common/strings.h"

namespace dq {

std::string DetectionMatrix::ToString() const {
  std::string out;
  out += "                    tool: incorrect   tool: correct\n";
  out += "data incorrect      " + std::to_string(true_positive) + " (TP)" +
         "            " + std::to_string(false_negative) + " (FN)\n";
  out += "data correct        " + std::to_string(false_positive) + " (FP)" +
         "            " + std::to_string(true_negative) + " (TN)\n";
  out += "sensitivity = " + FormatDouble(Sensitivity(), 4) +
         ", specificity = " + FormatDouble(Specificity(), 4);
  return out;
}

std::string CorrectionMatrix::ToString() const {
  std::string out;
  out += "                    after: correct   after: incorrect\n";
  out += "before correct      " + std::to_string(a) + " (a)            " +
         std::to_string(b) + " (b)\n";
  out += "before incorrect    " + std::to_string(c) + " (c)            " +
         std::to_string(d) + " (d)\n";
  out += "improvement = " + FormatDouble(Improvement(), 4);
  return out;
}

DetectionMatrix EvaluateDetection(const PollutionResult& pollution,
                                  const AuditReport& report) {
  DetectionMatrix m;
  for (size_t r = 0; r < pollution.dirty.num_rows(); ++r) {
    const bool corrupted = pollution.is_corrupted[r];
    const bool flagged = report.IsFlagged(r);
    if (corrupted && flagged) {
      ++m.true_positive;
    } else if (corrupted && !flagged) {
      ++m.false_negative;
    } else if (!corrupted && flagged) {
      ++m.false_positive;
    } else {
      ++m.true_negative;
    }
  }
  return m;
}

bool RowMatchesClean(const Table& clean, const PollutionResult& pollution,
                     const Table& dirty_or_corrected, size_t dirty_row) {
  const size_t origin = pollution.origin[dirty_row];
  // Cell-by-cell through the compat accessor: no full-row materialization.
  for (size_t a = 0; a < clean.num_attributes(); ++a) {
    if (!clean.cell(origin, a).StrictEquals(
            dirty_or_corrected.cell(dirty_row, a))) {
      return false;
    }
  }
  return true;
}

CorrectionMatrix EvaluateCorrection(const Table& clean,
                                    const PollutionResult& pollution,
                                    const AuditReport& report,
                                    const Table& corrected) {
  (void)report;
  CorrectionMatrix m;
  for (size_t r = 0; r < pollution.dirty.num_rows(); ++r) {
    const bool before_ok =
        RowMatchesClean(clean, pollution, pollution.dirty, r);
    const bool after_ok = RowMatchesClean(clean, pollution, corrected, r);
    if (before_ok && after_ok) {
      ++m.a;
    } else if (before_ok && !after_ok) {
      ++m.b;
    } else if (!before_ok && after_ok) {
      ++m.c;
    } else {
      ++m.d;
    }
  }
  return m;
}

}  // namespace dq
