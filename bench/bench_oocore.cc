// Out-of-core audit benchmark: streams a QUIS surrogate CSV that is many
// times larger than the memory budget through the SegmentStore-backed
// audit and reports throughput plus spill traffic, then cross-checks that
// the budgeted run produced exactly the ranking an unbudgeted run does.
//
// Default sweep uses a ~50 MB CSV against an 8 MB budget (>= 6x
// oversubscription once the columnar form is tighter than the text);
// --quick shrinks the table for CI smoke runs, --records / --budget
// override both ends of the ratio for manual experiments.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "audit/stream_audit.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "quis/quis_sample.h"
#include "table/csv.h"

using namespace dq;

namespace {

size_t RecordsArg(int argc, char** argv, size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--records") {
      int64_t v = 0;
      if (ParseInt64(argv[i + 1], &v) && v > 0) {
        return static_cast<size_t>(v);
      }
    }
  }
  return fallback;
}

uint64_t BudgetArg(int argc, char** argv, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--budget") {
      uint64_t v = 0;
      if (ParseByteSize(argv[i + 1], &v) && v > 0) return v;
    }
  }
  return fallback;
}

double Seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       from)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = dq::bench::QuickMode(argc, argv);
  const int threads = dq::bench::ThreadsArg(argc, argv);
  QuisConfig qcfg;
  qcfg.num_records = RecordsArg(argc, argv, quick ? 60000 : 600000);
  qcfg.seed = 2003;
  const uint64_t budget =
      BudgetArg(argc, argv, quick ? (1u << 20) : (8u << 20));

  const std::string csv_path =
      (std::filesystem::temp_directory_path() / "bench_oocore_quis.csv")
          .string();
  const std::string spill_dir = csv_path + ".spill";

  // Phase 1: chunked generation — the writer itself never holds more than
  // one chunk of rows.
  auto gen = QuisStreamGenerator::Create(qcfg);
  if (!gen.ok()) {
    std::fprintf(stderr, "generator: %s\n", gen.status().ToString().c_str());
    return 1;
  }
  const auto gen_t0 = std::chrono::steady_clock::now();
  {
    std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
    Table chunk;
    CsvOptions write_options;
    while (!gen->done()) {
      if (Status s = gen->NextChunk(16384, &chunk); !s.ok()) {
        std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
        return 1;
      }
      write_options.write_header = gen->records_generated() == chunk.num_rows();
      if (Status s = WriteCsv(chunk, &out, write_options); !s.ok()) {
        std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  const double gen_s = Seconds(gen_t0);
  const auto csv_bytes =
      static_cast<uint64_t>(std::filesystem::file_size(csv_path));
  const double csv_mb = static_cast<double>(csv_bytes) / (1024.0 * 1024.0);

  StreamAuditOptions options;
  options.sample_rows = quick ? 20000 : 100000;
  options.csv.num_threads = threads;
  options.auditor.min_error_confidence = 0.8;
  options.auditor.num_threads = threads;
  options.store.memory_budget_bytes = budget;
  options.store.spill_dir = spill_dir;
  // Quick runs shrink segments too, so even the small table produces real
  // eviction traffic instead of one oversized segment.
  if (quick) options.store.segment_rows = 8192;

  // Phase 2: budgeted streaming audit.
  const auto audit_t0 = std::chrono::steady_clock::now();
  auto budgeted = RunStreamingAudit(gen->schema(), csv_path, options);
  const double budgeted_s = Seconds(audit_t0);
  if (!budgeted.ok()) {
    std::fprintf(stderr, "audit: %s\n", budgeted.status().ToString().c_str());
    return 1;
  }

  // Phase 3: unbudgeted control run — must match suspicion for suspicion.
  StreamAuditOptions unbounded = options;
  unbounded.store.memory_budget_bytes = 0;
  const auto ctrl_t0 = std::chrono::steady_clock::now();
  auto control = RunStreamingAudit(gen->schema(), csv_path, unbounded);
  const double control_s = Seconds(ctrl_t0);
  if (!control.ok()) {
    std::fprintf(stderr, "control: %s\n",
                 control.status().ToString().c_str());
    return 1;
  }
  bool identical = control->suspicious.size() == budgeted->suspicious.size();
  for (size_t i = 0; identical && i < control->suspicious.size(); ++i) {
    const Suspicion& a = control->suspicious[i];
    const Suspicion& b = budgeted->suspicious[i];
    identical = a.row == b.row && a.error_confidence == b.error_confidence &&
                a.attr == b.attr && a.observed.StrictEquals(b.observed) &&
                a.suggestion.StrictEquals(b.suggestion) &&
                a.support == b.support;
  }
  std::filesystem::remove(csv_path);
  if (!identical) {
    std::fprintf(stderr,
                 "budgeted and unbudgeted rankings diverge (%zu vs %zu "
                 "suspicious)\n",
                 budgeted->suspicious.size(), control->suspicious.size());
    return 1;
  }

  const SegmentStore::Stats& st = budgeted->store_stats;
  const double rows_per_s =
      static_cast<double>(budgeted->total_rows) / budgeted_s;
  std::printf("# Out-of-core streaming audit (QUIS surrogate)\n");
  std::printf("records:         %zu  (%.1f MB of CSV, generated in %.1f s)\n",
              budgeted->total_rows, csv_mb, gen_s);
  std::printf("memory budget:   %.1f MB  (peak resident %.1f MB)\n",
              static_cast<double>(budget) / (1024.0 * 1024.0),
              static_cast<double>(st.resident_bytes_peak) /
                  (1024.0 * 1024.0));
  std::printf("budgeted audit:  %8.1f s  (%.0f rows/s, sample %zu rows)\n",
              budgeted_s, rows_per_s, budgeted->sampled_rows);
  std::printf("unbudgeted run:  %8.1f s  (ranking identical: yes)\n",
              control_s);
  std::printf("spill traffic:   %llu writes / %llu reads  (%.1f MB out, "
              "%.1f MB back, %llu evictions)\n",
              static_cast<unsigned long long>(st.spill_writes),
              static_cast<unsigned long long>(st.spill_reads),
              static_cast<double>(st.spill_bytes_written) / (1024.0 * 1024.0),
              static_cast<double>(st.spill_bytes_read) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(st.evictions));
  std::printf("suspicious:      %zu records\n", budgeted->suspicious.size());

  dq::bench::BenchJson json("oocore", argc, argv);
  json.manifest()->seed = qcfg.seed;
  json.manifest()->threads_requested = threads;
  json.manifest()->threads_used = ResolveThreadCount(threads);
  json.IncludeMetrics();
  json.Add("quick", quick ? 1 : 0);
  json.Add("records", budgeted->total_rows);
  json.Add("csv_bytes", csv_bytes);
  json.Add("generate_s", gen_s);
  json.Add("memory_budget_bytes", budget);
  json.Add("sample_rows", budgeted->sampled_rows);
  json.Add("budgeted_audit_s", budgeted_s);
  json.Add("unbudgeted_audit_s", control_s);
  json.Add("rows_per_s", rows_per_s);
  json.Add("segments", st.segments_sealed);
  json.Add("spill_writes", st.spill_writes);
  json.Add("spill_reads", st.spill_reads);
  json.Add("spill_bytes_written", st.spill_bytes_written);
  json.Add("spill_bytes_read", st.spill_bytes_read);
  json.Add("evictions", st.evictions);
  json.Add("resident_bytes_peak", st.resident_bytes_peak);
  json.Add("suspicious", budgeted->suspicious.size());
  json.Add("ranking_identical", 1);
  json.WriteFile();
  return 0;
}
