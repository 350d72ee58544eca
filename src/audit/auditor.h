// Auditor: structure induction + deviation detection + correction proposal
// (sec. 5, fig. 1 step 4).

#ifndef DQ_AUDIT_AUDITOR_H_
#define DQ_AUDIT_AUDITOR_H_

#include <vector>

#include "audit/audit_model.h"
#include "mining/c45.h"
#include "mining/knn.h"
#include "mining/naive_bayes.h"
#include "mining/oner.h"

namespace dq {

/// \brief Which dependency-model inducer the auditor plugs into the
/// multiple classification framework.
enum class InducerKind { kC45, kNaiveBayes, kKnn, kOneR };

const char* InducerKindToString(InducerKind kind);

struct AuditorConfig {
  /// "we fix a minimal error confidence of 80%" (sec. 6.1). Records whose
  /// combined error confidence reaches this value are marked suspicious.
  double min_error_confidence = 0.8;

  /// Confidence level for leftBound/rightBound (Def. 7).
  double confidence_level = 0.95;

  /// Equal-frequency bins for numeric/date class attributes (sec. 5).
  int numeric_class_bins = 8;

  /// Score observed nulls as deviations (P(c) = 0 in Def. 7).
  bool flag_null_values = true;

  InducerKind inducer = InducerKind::kC45;
  C45Config c45;
  NaiveBayesConfig naive_bayes;
  KnnConfig knn;
  OneRConfig oner;

  /// Domain knowledge (sec. 5): "If it is known that an attribute does not
  /// influence the value of a class attribute, it can be removed from the
  /// set of base attributes." Pairs are (class_attr, excluded_base_attr).
  std::vector<std::pair<int, int>> excluded_base_attrs;

  /// Attributes not audited at all (no classifier induced for them).
  std::vector<int> skip_class_attrs;

  /// Worker threads for structure induction (one classifier per attribute
  /// is independent) and record checking (each record is scored
  /// independently, Def. 7/8). 0 = hardware concurrency, 1 = serial.
  /// Results are identical for every thread count.
  int num_threads = 0;
};

/// \brief One suspicious record in the ranked report.
struct Suspicion {
  size_t row = 0;
  double error_confidence = 0.0;
  /// Attribute whose classifier raised the highest confidence.
  int attr = -1;
  Value observed;
  /// Proposed correction: "the predicted values generated by the
  /// classifiers induced can be employed directly as suggested corrections"
  /// (sec. 5.3).
  Value suggestion;
  /// Training instances behind the winning prediction.
  double support = 0.0;
};

/// \brief Full result of a deviation-detection pass: the ranked list, the
/// type a streaming audit merges, plus a flag bit per record. A record's
/// Def. 8 confidence is kept only when it is flagged, so a pass at
/// min_error_confidence = 0 lists every record with a nonzero confidence.
struct AuditReport {
  /// Records with confidence >= min_error_confidence, ranked descending
  /// ("ranked according to their associated error confidence", sec. 6.2);
  /// ties keep row order.
  std::vector<Suspicion> suspicious;

  /// One bit per audited record: set when the record is in `suspicious`.
  std::vector<bool> flagged;

  size_t NumFlagged() const { return suspicious.size(); }
  bool IsFlagged(size_t row) const {
    return flagged.size() > row && flagged[row];
  }
};

/// \brief Drives structure induction and data checking.
class Auditor {
 public:
  explicit Auditor(AuditorConfig config = {}) : config_(config) {}

  const AuditorConfig& config() const { return config_; }

  /// \brief Structure induction: trains one classifier per (non-skipped)
  /// attribute of `train` (of a C4.5 tree only the compiled form is kept).
  /// Per-attribute inductions are independent and run across `num_threads`
  /// workers. Records the `induce` span, with
  /// `induce.encode` and one `induce.attr` span per attribute (keyed by the
  /// class attribute) under it.
  Result<AuditModel> Induce(const Table& train) const;

  /// \brief Deviation detection over `data` (which may be the training
  /// table itself — "only a single database which serves both for training
  /// and data audit", sec. 8). Records are scored in row chunks across
  /// `num_threads` workers; the report is identical for every thread count.
  Result<AuditReport> Audit(const AuditModel& model, const Table& data) const;

  /// \brief Applies the proposed corrections of all flagged records to a
  /// copy of `data` (sec. 5.3: "we replace a suspicious value according to
  /// the prediction of the classifier with the highest error confidence").
  /// Fails with InvalidArgument, before copying, when the report flags
  /// another number of records than `data` has, or a suspicion names a row
  /// or attribute `data` lacks or suggests a value of another kind.
  Result<Table> ApplyCorrections(const AuditReport& report,
                                 const Table& data) const;

 private:
  /// The untrained classifier of a non-tree inducer; null for C4.5.
  std::unique_ptr<Classifier> MakeClassifier() const;

  AuditorConfig config_;
};

}  // namespace dq

#endif  // DQ_AUDIT_AUDITOR_H_
