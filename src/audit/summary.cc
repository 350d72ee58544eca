#include "audit/summary.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace dq {

AuditSummary SummarizeReport(const std::vector<Suspicion>& suspicious,
                             size_t records) {
  AuditSummary summary;
  summary.records = records;
  summary.flagged = suspicious.size();
  summary.flag_rate =
      summary.records == 0
          ? 0.0
          : static_cast<double>(summary.flagged) /
                static_cast<double>(summary.records);

  std::map<int, AttributeSummary> per_attr;
  for (const Suspicion& s : suspicious) {
    AttributeSummary& a = per_attr[s.attr];
    a.attr = s.attr;
    ++a.flagged;
    a.mean_confidence += s.error_confidence;
    a.max_confidence = std::max(a.max_confidence, s.error_confidence);
    if (s.observed.is_null()) ++a.null_observations;
  }
  for (auto& [attr, a] : per_attr) {
    a.mean_confidence /= static_cast<double>(a.flagged);
    summary.by_attribute.push_back(a);
  }
  std::sort(summary.by_attribute.begin(), summary.by_attribute.end(),
            [](const AttributeSummary& x, const AttributeSummary& y) {
              return x.flagged > y.flagged;
            });
  return summary;
}

std::string RenderAuditSummary(const AuditSummary& summary,
                               const Schema& schema) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "audited %zu records, %zu suspicious (%.2f%%)\n",
                summary.records, summary.flagged, summary.flag_rate * 100.0);
  out += line;
  if (summary.by_attribute.empty()) return out;
  std::snprintf(line, sizeof(line), "%-16s %8s %10s %10s %8s\n", "attribute",
                "flags", "mean conf", "max conf", "nulls");
  out += line;
  for (const AttributeSummary& a : summary.by_attribute) {
    std::snprintf(line, sizeof(line), "%-16s %8zu %10.4f %10.4f %8zu\n",
                  schema.attribute(static_cast<size_t>(a.attr)).name.c_str(),
                  a.flagged, a.mean_confidence, a.max_confidence,
                  a.null_observations);
    out += line;
  }
  return out;
}

}  // namespace dq
