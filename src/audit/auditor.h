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

/// \brief Full result of a deviation-detection pass.
struct AuditReport {
  /// Combined (Def. 8) error confidence per record.
  std::vector<double> record_confidence;
  /// Winning attribute per record (-1 when no classifier flagged anything).
  std::vector<int> record_attr;
  /// Proposed correction per record (null when record_attr is -1).
  std::vector<Value> record_suggestion;
  /// Support behind each record's winning prediction.
  std::vector<double> record_support;

  /// Records with confidence >= min_error_confidence, ranked descending
  /// ("ranked according to their associated error confidence", sec. 6.2).
  std::vector<Suspicion> suspicious;

  size_t NumFlagged() const { return suspicious.size(); }
  bool IsFlagged(size_t row) const {
    return flagged.size() > row && flagged[row];
  }

  std::vector<bool> flagged;
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
  Result<Table> ApplyCorrections(const AuditReport& report,
                                 const Table& data) const;

 private:
  /// The untrained classifier of a non-tree inducer; null for C4.5.
  std::unique_ptr<Classifier> MakeClassifier() const;

  AuditorConfig config_;
};

}  // namespace dq

#endif  // DQ_AUDIT_AUDITOR_H_
