#include "obs/bench_report.h"

#include <cstdio>

#include "common/atomic_file.h"
#include "obs/metrics.h"

namespace dq::obs {

std::string BenchReport::ToJson() const {
  JsonObjectWriter out = fields_;
  out.Add("failed_seeds", failed_seeds_);
  if (manifest_.has_value()) manifest_->AppendTo(&out);
  if (include_metrics_) {
    std::string metrics = MetricsRegistry::Global().ToJson();
    // Drop the trailing newline the standalone dump carries.
    while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
    out.AddRaw("metrics", std::move(metrics));
  }
  return out.Render() + "\n";
}

bool BenchReport::WriteFile() const {
  const std::string path = "BENCH_" + name_ + ".json";
  const Status written = WriteFileAtomically(path, ToJson());
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace dq::obs
