// StructureModel: the former name of the persisted model. The induced and
// the persisted model are one type, AuditModel (audit/audit_model.h); the
// alias and AuditModel::FromAuditModel remain for code using the old name.

#ifndef DQ_AUDIT_STRUCTURE_MODEL_H_
#define DQ_AUDIT_STRUCTURE_MODEL_H_

#include "audit/auditor.h"

namespace dq {

using StructureModel = AuditModel;

}  // namespace dq

#endif  // DQ_AUDIT_STRUCTURE_MODEL_H_
