// Shared helpers for the figure/table reproduction binaries.

#ifndef DQ_BENCH_BENCH_UTIL_H_
#define DQ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "eval/test_environment.h"
#include "flag_parse.h"
#include "obs/bench_report.h"
#include "obs/log.h"

namespace dq::bench {

/// Aggregated outcome of one sweep point, averaged over seeds.
struct SweepPoint {
  double sensitivity = 0.0;
  double specificity = 0.0;
  double correction_improvement = 0.0;
  double flagged = 0.0;
  double corrupted = 0.0;
  double total_ms = 0.0;
  int failed_seeds = 0;  ///< runs that errored and were excluded
};

/// Runs the test environment for `seeds` seeds and averages the measures.
/// Failed seeds are excluded from the averages and counted in the result
/// (report them via BenchJson::SetFailedSeeds so they land in the JSON).
inline SweepPoint RunAveraged(TestEnvironmentConfig cfg, int seeds) {
  SweepPoint p;
  int ok_runs = 0;
  for (int s = 0; s < seeds; ++s) {
    cfg.seed = 1000 + static_cast<uint64_t>(s) * 77;
    auto result = TestEnvironment(cfg).Run();
    if (!result.ok()) {
      DQ_LOG_WARN("bench", "run failed (seed %d): %s", s,
                  result.status().ToString().c_str());
      ++p.failed_seeds;
      continue;
    }
    ++ok_runs;
    p.sensitivity += result->sensitivity;
    p.specificity += result->specificity;
    p.correction_improvement += result->correction_improvement;
    p.flagged += static_cast<double>(result->flagged);
    p.corrupted += static_cast<double>(result->corrupted);
    p.total_ms += result->generate_ms + result->pollute_ms +
                  result->induce_ms + result->audit_ms;
  }
  if (ok_runs == 0) {
    DQ_LOG_ERROR("bench", "all runs failed");
    std::exit(1);
  }
  p.sensitivity /= ok_runs;
  p.specificity /= ok_runs;
  p.correction_improvement /= ok_runs;
  p.flagged /= ok_runs;
  p.corrupted /= ok_runs;
  p.total_ms /= ok_runs;
  return p;
}

/// "--quick" on the command line shrinks a sweep for smoke runs.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") return true;
  }
  return false;
}

/// "--threads N" on the command line (default 0 = hardware concurrency;
/// any non-positive value means the hardware default). A value that is not
/// an integer exits with status 2, as the CLIs do.
inline int ThreadsArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads") {
      int threads = 0;
      if (!ParseIntFlag32("--threads", argv[i + 1],
                          std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max(), &threads)) {
        std::exit(2);
      }
      return threads;
    }
  }
  return 0;
}

/// "--split-mode histogram|exact" on the command line (default
/// "histogram", matching C45Config::split_mode). Any other value exits
/// with status 2.
inline std::string SplitModeArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) != "--split-mode") continue;
    const std::string mode = argv[i + 1];
    if (mode != "histogram" && mode != "exact") {
      std::fprintf(stderr, "--split-mode must be 'histogram' or 'exact'\n");
      std::exit(2);
    }
    return mode;
  }
  return "histogram";
}

/// "--trace-out FILE" on the command line (empty = no trace export). When
/// set, the bench writes the stitched span tree as Chrome trace-event
/// JSON.
inline std::string TraceOutArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace-out") return argv[i + 1];
  }
  return "";
}

/// The BENCH_<name>.json emitter every bench binary shares. This is the
/// schema-versioned obs::BenchReport; construct it with (name, argc, argv)
/// so the emitted JSON carries the run manifest.
using BenchJson = ::dq::obs::BenchReport;

}  // namespace dq::bench

#endif  // DQ_BENCH_BENCH_UTIL_H_
