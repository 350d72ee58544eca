// Schema-versioned BENCH_<name>.json emitter — the single writer behind
// every benchmark binary (bench/bench_util.h wraps it). Each report carries
// a schema version, the run manifest when built from the command line, the
// failed-seed count, and optionally the full metrics snapshot, so a
// benchmark number can be traced back to the exact configuration that
// produced it.

#ifndef DQ_OBS_BENCH_REPORT_H_
#define DQ_OBS_BENCH_REPORT_H_

#include <optional>
#include <string>
#include <utility>

#include "obs/json.h"
#include "obs/manifest.h"

namespace dq::obs {

class BenchReport {
 public:
  /// Bumped whenever the BENCH_*.json layout changes.
  static constexpr int kSchemaVersion = 2;

  explicit BenchReport(std::string name) : name_(std::move(name)) {
    fields_.Add("schema_version", kSchemaVersion);
    fields_.Add("bench", name_);
  }

  /// \brief Builds the run manifest from the command line and attaches it.
  BenchReport(std::string name, int argc, const char* const* argv)
      : BenchReport(std::move(name)) {
    manifest_ = MakeRunManifest(name_, argc, argv);
  }

  template <typename T>
  void Add(const std::string& key, T value) {
    fields_.Add(key, value);
  }

  RunManifest* manifest() {
    return manifest_.has_value() ? &*manifest_ : nullptr;
  }

  /// \brief Also embed the global metrics registry snapshot under
  /// "metrics" when the report is written.
  void IncludeMetrics(bool include = true) { include_metrics_ = include; }

  /// \brief Count of seeds whose pipeline run failed (surfaced in the JSON
  /// instead of only on stderr).
  void SetFailedSeeds(int failed) { failed_seeds_ = failed; }

  /// \brief Renders the full report (see docs/OBSERVABILITY.md).
  std::string ToJson() const;

  /// \brief Writes `BENCH_<name>.json` into the working directory.
  bool WriteFile() const;

 private:
  std::string name_;
  JsonObjectWriter fields_;
  std::optional<RunManifest> manifest_;
  bool include_metrics_ = false;
  int failed_seeds_ = 0;
};

}  // namespace dq::obs

#endif  // DQ_OBS_BENCH_REPORT_H_
