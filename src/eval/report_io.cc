#include "eval/report_io.h"

#include <ostream>

#include "audit/stream_audit.h"
#include "common/atomic_file.h"

namespace dq {

Status WriteAuditReportCsv(const AuditReport& report, const Table& data,
                           std::ostream* out) {
  // Same writer the streaming audit uses (so both paths emit identical
  // bytes); the only in-memory extra is the row bounds check, which the
  // streaming path cannot do (it never holds the full table).
  for (const Suspicion& s : report.suspicious) {
    if (s.row >= data.num_rows()) {
      return Status::InvalidArgument("report does not match the table");
    }
  }
  Status written =
      WriteStreamAuditReportCsv(report.suspicious, data.schema(), out);
  if (!written.ok() && written.IsInvalidArgument()) {
    return Status::InvalidArgument("report does not match the table");
  }
  return written;
}

Status WriteAuditReportCsvFile(const AuditReport& report, const Table& data,
                               const std::string& path) {
  return WriteFileAtomically(path, [&](std::ostream* out) {
    return WriteAuditReportCsv(report, data, out);
  });
}

}  // namespace dq
