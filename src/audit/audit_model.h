// AuditModel: the structure model of the multiple classification /
// regression approach (sec. 5) — one dependency model (plus class encoder)
// per audited attribute, from induction to disk. "While the time-consuming
// structure induction can be prepared off-line, new data can be checked for
// deviations and loaded quickly" (sec. 2.2).
//
// A C4.5 attribute model keeps only its compiled tree; the pointer tree
// dies with the induction job. The model persists those trees and their
// class encoders as `dqmodel v2` (docs/FORMATS.md), and a loaded model is
// the type an induced one is, so checking, rule export and review treat
// both alike. Models of the other inducers keep their trained Classifier
// and are not persisted.

#ifndef DQ_AUDIT_AUDIT_MODEL_H_
#define DQ_AUDIT_AUDIT_MODEL_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mining/classifier.h"
#include "mining/compiled_tree.h"

namespace dq {

struct AuditorConfig;
struct AuditReport;

/// \brief One per-attribute dependency model. C4.5 fills `tree` and leaves
/// `classifier` null; naive Bayes, k-NN and OneR keep `classifier` and
/// leave `tree` empty.
struct AttributeModel {
  int class_attr = -1;
  ClassEncoder encoder;
  CompiledTree tree;
  std::unique_ptr<Classifier> classifier;
};

/// \brief The structure model: "The rule sets generated by all classifiers
/// in the multiple classification / regression approach build the structure
/// model of the data. In database terminology it can be seen as a set of
/// integrity constraints that must hold with a given probability."
class AuditModel {
 public:
  /// \brief A copy of the tree models of `model`, the part that persists.
  /// Kept only for callers written against the former StructureModel.
  static AuditModel FromAuditModel(const AuditModel& model,
                                   const Schema& schema);

  void AddAttributeModel(AttributeModel model) {
    models_.push_back(std::move(model));
  }

  const std::vector<AttributeModel>& models() const { return models_; }
  size_t num_models() const { return models_.size(); }

  /// \brief Model auditing `attr`, or nullptr if the attribute is skipped.
  const AttributeModel* ModelFor(int attr) const;

  /// \brief Rules across all trees: leaves with positive training weight.
  size_t TotalRules() const;

  /// \brief Deviation detection over `data`; `config` supplies the minimal
  /// error confidence, confidence level, null-flagging policy and thread
  /// count. Equals Auditor::Audit with that configuration.
  Result<AuditReport> Check(const Table& data,
                            const AuditorConfig& config) const;

  /// \brief Writes the tree models in the textual `dqmodel v2` format.
  Status SerializeTo(std::ostream* out) const;
  /// \brief Writes `<path>.tmp` and renames it over `path`, so a failed
  /// save leaves no file behind.
  Status SaveToFile(const std::string& path) const;

  /// \brief Reads a `dqmodel v2` model; the schema must match the one the
  /// model was induced on (attribute indices, kinds and category lists).
  /// Malformed input yields an error Status naming the line.
  static Result<AuditModel> Deserialize(const Schema& schema,
                                        std::istream* in);
  static Result<AuditModel> Deserialize(const Schema& schema,
                                        std::string_view text);
  static Result<AuditModel> LoadFromFile(const Schema& schema,
                                         const std::string& path);

 private:
  std::vector<AttributeModel> models_;
};

}  // namespace dq

#endif  // DQ_AUDIT_AUDIT_MODEL_H_
