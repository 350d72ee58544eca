#include "obs/history.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "obs/json.h"

namespace dq::obs {

namespace {

/// Renders (name, value) pairs as one compact JSON object.
template <typename T>
std::string PairsToJson(const std::vector<std::pair<std::string, T>>& pairs) {
  JsonObjectWriter out;
  for (const auto& [name, value] : pairs) {
    out.Add(name, value);
  }
  return out.Render(0);
}

}  // namespace

std::string HistoryRecord::ToJsonLine() const {
  JsonObjectWriter out;
  out.Add("schema_version", kSchemaVersion);
  out.AddRaw("manifest", manifest.ToJson(0));

  JsonObjectWriter sum;
  sum.Add("records", summary.records);
  sum.Add("suspicious", summary.suspicious);
  sum.Add("suspicion_rate", summary.suspicion_rate);
  sum.AddRaw("rule_violations", PairsToJson(summary.rule_violations));
  std::string confidences = "[";
  for (size_t i = 0; i < summary.top_confidences.size(); ++i) {
    if (i > 0) confidences += ",";
    confidences += JsonDouble(summary.top_confidences[i]);
  }
  confidences += "]";
  sum.AddRaw("top_confidences", std::move(confidences));
  sum.AddRaw("timings_ms", PairsToJson(summary.timings_ms));
  out.AddRaw("summary", sum.Render(0));

  JsonObjectWriter metrics_obj;
  metrics_obj.AddRaw("counters", PairsToJson(metrics.counters));
  metrics_obj.AddRaw("gauges", PairsToJson(metrics.gauges));
  out.AddRaw("metrics", metrics_obj.Render(0));
  return out.Render(0);
}

Result<HistoryRecord> HistoryRecord::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("history record is not a JSON object");
  }
  const JsonValue* version = json.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument("history record missing schema_version");
  }
  if (version->AsInt64() != kSchemaVersion) {
    return Status::InvalidArgument("unsupported history schema_version " +
                                   version->number_raw);
  }
  HistoryRecord record;
  const JsonValue* manifest = json.Find("manifest");
  if (manifest == nullptr) {
    return Status::InvalidArgument("history record missing manifest");
  }
  Status parsed = RunManifestFromJson(*manifest, &record.manifest);
  if (!parsed.ok()) return parsed;

  const JsonValue* sum = json.Find("summary");
  if (sum == nullptr || !sum->is_object()) {
    return Status::InvalidArgument("history record missing summary");
  }
  if (const JsonValue* v = sum->Find("records")) {
    record.summary.records = v->AsUint64();
  }
  if (const JsonValue* v = sum->Find("suspicious")) {
    record.summary.suspicious = v->AsUint64();
  }
  if (const JsonValue* v = sum->Find("suspicion_rate")) {
    record.summary.suspicion_rate = v->AsDouble();
  }
  if (const JsonValue* v = sum->Find("rule_violations");
      v != nullptr && v->is_object()) {
    for (const auto& [name, count] : v->members) {
      record.summary.rule_violations.emplace_back(name, count.AsUint64());
    }
  }
  if (const JsonValue* v = sum->Find("top_confidences");
      v != nullptr && v->is_array()) {
    for (const JsonValue& item : v->items) {
      record.summary.top_confidences.push_back(item.AsDouble());
    }
  }
  if (const JsonValue* v = sum->Find("timings_ms");
      v != nullptr && v->is_object()) {
    for (const auto& [phase, ms] : v->members) {
      record.summary.timings_ms.emplace_back(phase, ms.AsDouble());
    }
  }

  if (const JsonValue* metrics = json.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const JsonValue* counters = metrics->Find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [name, value] : counters->members) {
        record.metrics.counters.emplace_back(name, value.AsUint64());
      }
    }
    if (const JsonValue* gauges = metrics->Find("gauges");
        gauges != nullptr && gauges->is_object()) {
      for (const auto& [name, value] : gauges->members) {
        record.metrics.gauges.emplace_back(name, value.AsDouble());
      }
    }
  }
  return record;
}

std::string HistoryStore::ledger_path() const {
  return dir_ + "/" + kLedgerName;
}

Status HistoryStore::Append(const HistoryRecord& record) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create history directory '" + dir_ +
                           "': " + ec.message());
  }
  const std::string path = ledger_path();
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::IOError("cannot open history ledger '" + path +
                           "' for appending");
  }
  out << record.ToJsonLine() << '\n';
  out.flush();
  if (!out) {
    return Status::IOError("short write to history ledger '" + path + "'");
  }
  return Status::OK();
}

Status HistoryStore::Compact(size_t max_runs, size_t* dropped_runs,
                             size_t* dropped_damaged) const {
  if (dropped_runs != nullptr) *dropped_runs = 0;
  if (dropped_damaged != nullptr) *dropped_damaged = 0;
  if (max_runs == 0) {
    return Status::InvalidArgument("max_runs must be positive");
  }
  const std::string path = ledger_path();
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::OK();  // nothing to compact yet

  // Keep the original bytes of every valid line: compaction must never
  // rewrite a record (ToJsonLine drift would silently corrupt history
  // diffs), only drop whole lines.
  std::vector<std::string> valid;
  size_t damaged = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    JsonValue json;
    if (!ParseJson(line, &json) || !HistoryRecord::FromJson(json).ok()) {
      ++damaged;
      continue;
    }
    valid.push_back(line);
  }
  in.close();

  const size_t keep = std::min(valid.size(), max_runs);
  const size_t dropped = valid.size() - keep;
  if (dropped == 0 && damaged == 0) return Status::OK();

  DQ_RETURN_NOT_OK(WriteFileAtomically(path, [&](std::ostream* out) {
    for (size_t i = valid.size() - keep; i < valid.size(); ++i) {
      *out << valid[i] << '\n';
    }
    return Status::OK();
  }));
  if (dropped_runs != nullptr) *dropped_runs = dropped;
  if (dropped_damaged != nullptr) *dropped_damaged = damaged;
  return Status::OK();
}

Result<std::vector<HistoryRecord>> HistoryStore::ReadAll(
    size_t* damaged_lines) const {
  const std::string path = ledger_path();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot read history ledger '" + path + "'");
  }
  std::vector<HistoryRecord> records;
  size_t damaged = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    JsonValue json;
    if (!ParseJson(line, &json)) {
      ++damaged;
      continue;
    }
    auto record = HistoryRecord::FromJson(json);
    if (!record.ok()) {
      ++damaged;
      continue;
    }
    records.push_back(std::move(*record));
  }
  if (damaged_lines != nullptr) *damaged_lines = damaged;
  return records;
}

}  // namespace dq::obs
