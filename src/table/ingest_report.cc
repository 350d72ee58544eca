#include "table/ingest_report.h"

#include <array>
#include <cstdio>
#include <sstream>

#include "common/atomic_file.h"
#include "obs/json.h"

namespace dq {

namespace {

constexpr std::array<CsvErrorKind, 5> kAllKinds = {
    CsvErrorKind::kUnterminatedQuote, CsvErrorKind::kStrayQuote,
    CsvErrorKind::kArityMismatch, CsvErrorKind::kBadValue,
    CsvErrorKind::kBadHeader};

}  // namespace

size_t IngestReport::CountOf(CsvErrorKind kind) const {
  size_t n = 0;
  for (const IngestError& e : errors) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::string IngestReport::Summary() const {
  std::ostringstream os;
  os << "quarantined " << records_quarantined << " of " << records_total
     << " records";
  if (records_quarantined > 0) {
    os << " (";
    bool first = true;
    for (CsvErrorKind kind : kAllKinds) {
      const size_t n = CountOf(kind);
      if (n == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << CsvErrorKindToString(kind) << ' ' << n;
    }
    os << ')';
  }
  return os.str();
}

std::string IngestReport::RenderText() const {
  std::ostringstream os;
  for (const IngestError& e : errors) {
    os << "  " << FormatIngestError(e) << '\n';
  }
  return os.str();
}

std::string IngestReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"records_total\": " << records_total << ",\n";
  os << "  \"records_kept\": " << records_kept << ",\n";
  os << "  \"records_quarantined\": " << records_quarantined << ",\n";
  os << "  \"bytes_read\": " << bytes_read << ",\n";
  char ms[64];
  std::snprintf(ms, sizeof(ms), "%.3f", parse_ms);
  os << "  \"parse_ms\": " << ms << ",\n";
  os << "  \"threads_used\": " << threads_used << ",\n";
  os << "  \"counts\": {";
  bool first = true;
  for (CsvErrorKind kind : kAllKinds) {
    // Every kind appears, zero or not: consumers can key on a stable set.
    const size_t n = CountOf(kind);
    if (!first) os << ", ";
    first = false;
    os << '"' << CsvErrorKindToString(kind) << "\": " << n;
  }
  os << "},\n";
  os << "  \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    const IngestError& e = errors[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"line\": " << e.line << ", \"column\": " << e.column
       << ", \"kind\": \"" << CsvErrorKindToString(e.kind)
       << "\", \"message\": \"" << obs::JsonEscape(e.message)
       << "\", \"raw\": \"" << obs::JsonEscape(e.raw) << "\"}";
  }
  os << (errors.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

Status IngestReport::WriteJsonFile(const std::string& path) const {
  return WriteFileAtomically(path, ToJson());
}

std::string FormatIngestError(const IngestError& error) {
  std::ostringstream os;
  os << "line " << error.line;
  if (error.column > 0) os << ", column " << error.column;
  os << ": " << CsvErrorKindToString(error.kind) << ": " << error.message;
  return os.str();
}

}  // namespace dq
