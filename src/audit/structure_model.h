// StructureModel: the persistent form of an induced audit model.
//
// "The rule sets generated by all classifiers in the multiple
// classification / regression approach build the structure model of the
// data" (sec. 5.4), and "structure induction [and] data checking ... can
// run asynchronously. This is useful for an application in the data
// cleansing phase during warehouse loading: While the time-consuming
// structure induction can be prepared off-line, new data can be checked for
// deviations and loaded quickly" (sec. 2.2).
//
// A StructureModel keeps the compiled tree and class encoder of every C4.5
// attribute model, persists them in the textual `dqmodel v2` format
// (docs/FORMATS.md), and checks tables without re-induction through the
// same scoring kernel as Auditor::Audit. Nulls are scored as the audit
// scores them: a record whose split value is null follows every branch
// with C4.5's known-value branch weights, so checking a table against a
// saved model ranks it exactly as auditing it with the in-memory model.
// Each leaf with positive weight is one root-to-leaf rule of the tree.

#ifndef DQ_AUDIT_STRUCTURE_MODEL_H_
#define DQ_AUDIT_STRUCTURE_MODEL_H_

#include <iosfwd>
#include <string_view>
#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief Compiled-tree structure model: buildable from an AuditModel,
/// serializable, and directly usable for deviation detection.
class StructureModel {
 public:
  /// \brief The persisted model of one audited attribute.
  struct AttributeTree {
    int class_attr = -1;
    ClassEncoder encoder;
    CompiledTree tree;
  };

  StructureModel() = default;

  /// \brief Keeps the compiled tree of every C4.5 attribute model. Models
  /// induced with non-tree classifiers are not persisted.
  static StructureModel FromAuditModel(const AuditModel& model,
                                       const Schema& schema);

  const std::vector<AttributeTree>& trees() const { return trees_; }

  /// \brief Rules across all trees: leaves with positive training weight.
  size_t TotalRules() const;

  /// \brief Deviation detection. Produces the report Auditor::Audit
  /// produces for the model this one was built from; `config` supplies the
  /// minimal error confidence, confidence level, null-flagging policy and
  /// thread count.
  Result<AuditReport> Check(const Table& data,
                            const AuditorConfig& config) const;

  /// \brief Writes the model in the textual `dqmodel v2` format.
  Status SerializeTo(std::ostream* out) const;
  /// \brief Writes `<path>.tmp` and renames it over `path`, so a failed
  /// save leaves no file behind.
  Status SaveToFile(const std::string& path) const;

  /// \brief Reads a `dqmodel v2` model; the schema must match the one the
  /// model was induced on (attribute indices, kinds and category lists).
  /// Malformed input yields an error Status naming the line.
  static Result<StructureModel> Deserialize(const Schema& schema,
                                            std::istream* in);
  static Result<StructureModel> Deserialize(const Schema& schema,
                                            std::string_view text);
  static Result<StructureModel> LoadFromFile(const Schema& schema,
                                             const std::string& path);

 private:
  std::vector<AttributeTree> trees_;
};

}  // namespace dq

#endif  // DQ_AUDIT_STRUCTURE_MODEL_H_
