// bench_e2e — the repository's file-to-report benchmark.
//
// It measures what a dqaudit user waits for: a polluted QUIS table on disk
// turned into a ranked suspicion report on disk. Each workload generates
// its inputs from --seed into a work directory (timed as set-up), then
// calls the public functions tools/dqaudit.cc calls, as a closed loop with
// one client: one untimed warm-up, timed repeats with tracing off for
// --seconds (at least kMinRepeats of them), and one traced repeat whose
// spans and counters give the per-layer profile. The inputs are small, so
// a pass takes a tenth of a second or less and a run makes 40 to 90 of them;
// the fastest pass is the end-to-end time (see kWorkloads for why). Every
// report is checked:
// its digest must repeat across passes and match a control pass. Detection
// is scored against the pollution's truth bits (sensitivity and
// specificity, sec. 4.3 of the paper) on a reference input polluted with
// the paper's seed, so those two numbers depend on the code alone.
//
// Usage, from the repository root after building (run.py builds first):
//   bench_e2e --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR]
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"} carrying the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). `all` runs every workload in its own child
// process, so set-up time and peak RSS stay per workload. Exit status: 0
// when every check passed, 1 when one failed, 2 on a malformed command line.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "audit/stream_audit.h"
#include "audit/structure_model.h"
#include "common/parallel.h"
#include "eval/report_io.h"
#include "flag_parse.h"
#include "mining/split_kernels.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pollution/pipeline.h"
#include "quis/quis_sample.h"
#include "table/csv_scan.h"
#include "table/ingest_backend.h"
#include "table/schema_spec.h"

using namespace dq;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Sizes, repeats and the streaming shape are constants of the
// benchmark, not flags: a number is only comparable with another taken on
// the same inputs.
//
// The inputs are sized so that one pass takes 50 to 100 ms. On a virtual
// machine that shares its host's cores, other tenants slow a core in bursts
// of roughly 0.1 to 0.5 s, by up to 2x for code that keeps the core's
// execution units busy, as the tree build and the scoring loops do. A
// 1.5 s pass over the paper's 200k rows always overlaps some bursts, so its
// time follows how busy the host is: the median pass of ten such runs
// spread by 5% to 43% between the runs' quartiles. Among dozens of short
// passes, pinned to the CPUs least busy just before (CpuPicker), some run
// between bursts, and the fastest of them is closest to the program's own
// cost: over ten runs it spread by 4% to 24%. Noise only ever adds time,
// so the fastest pass is also the one a change in the code moves most
// cleanly.

enum class Pipeline { kClassic, kModelCheck, kStream };

struct Workload {
  const char* name;
  const char* why;
  Pipeline pipeline;
  IngestFormat format;
  bool parallel;         ///< kParallelThreads threads instead of 1
  uint64_t seed_offset;  ///< the audited rows are polluted with --seed + this
  size_t rows;           ///< audited rows
};

constexpr Workload kWorkloads[] = {
    {"quis_csv_serial",
     "the paper's sec. 6.2 audit (20k rows) from CSV at 1 thread: every "
     "layer's share shows without scheduler noise; tree build dominates",
     Pipeline::kClassic, IngestFormat::kCsv, false, 0, 20000},
    {"quis_dqcol_parallel",
     "the same rows from dqcol at 2 threads: ingest drops out, the pool and "
     "node-parallel tree build dominate; report must equal quis_csv_serial's",
     Pipeline::kClassic, IngestFormat::kDqcol, true, 0, 20000},
    {"quis_model_check",
     "8k new rows checked against a model persisted in set-up (sec. 2.2): no "
     "induction, so it is the control for mining changes; the rule scan "
     "dominates",
     Pipeline::kModelCheck, IngestFormat::kCsv, false, 1, 8000},
    {"quis_stream_spill",
     "40k rows streamed past a 512 KiB budget at 2 threads: the only "
     "workload that spills and reloads segments",
     Pipeline::kStream, IngestFormat::kCsv, true, 2, 40000},
};

/// Threads of the parallel workloads, at most nproc. Half of a 4-CPU
/// machine: the pass still runs on the pool, and a CPU stays free for the
/// rest of the system, so the pass waits for fewer busy cores.
constexpr int kParallelThreads = 2;

/// Every workload reads the QUIS surrogate table of the paper's seed, as
/// bench_quis_audit does; --seed drives the pollution. The generator's seed
/// reshapes the table's dependencies (over ten seeds the model check's rule
/// count ranged from 5.7k to 9.0k), which would make run time a property of
/// the seed rather than of the code.
///
/// Detection is scored on a reference input whose pollution uses this seed
/// too: from one pollution seed to the next sensitivity moves by 1-4%,
/// which would hide a change in what the code detects.
constexpr uint64_t kQuisSeed = 2003;

/// Records quis_model_check induces its persisted model on; the checked
/// batch is the records that follow them. The training rows are polluted
/// with kQuisSeed, not --seed, so every seed checks against the same model:
/// with seeded training pollution the rule count of a 200k-row model ranged
/// from 5.2k to 5.8k over six seeds and the check time followed it. 50k rows
/// keep one set-up near 0.3 s; the model has about 4k rules (0.7 MB).
constexpr size_t kModelTrainRows = 50000;

/// Rows generated and polluted per chunk while setting up, so set-up
/// memory stays bounded.
constexpr size_t kChunkRows = 50000;

/// quis_stream_spill's streaming shape: the 40k rows make about 20
/// segments, several times the budget, so segments are spilled and
/// reloaded in every pass.
constexpr uint64_t kMemoryBudget = 512u << 10;
constexpr size_t kSegmentRows = 2048;
constexpr size_t kSampleRows = 8000;

/// Set-up runs at least kSetupRepeats times and for at least
/// kMinSetupSeconds, so the median of the short set-ups rests on a few
/// dozen samples.
constexpr int kSetupRepeats = 5;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMinRepeats = 3;
constexpr double kDefaultSeconds = 6.0;

/// Floor on specificity. The QUIS surrogate's own noise (2% scattered
/// plant/variant values and the planted impurities) is flagged but is not
/// pollution, so every workload measures about 0.952; a broken detector
/// falls far below.
constexpr double kMinSpecificity = 0.94;

// ---------------------------------------------------------------------------
// Small measurement helpers.

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return HardwareThreads();
  return std::max(1, CPU_COUNT(&set));
}

/// Picks the CPUs the next set-up or pass runs on. On a virtual machine
/// that shares its host's cores, a CPU whose core another tenant is using
/// runs integer code up to 2x slower for 0.1 to 0.5 s at a time, and the
/// kernel here cannot see it. Pin() times a short integer loop on every CPU
/// the process may use and pins the process, and so the pool threads the
/// pass starts, to the fastest `count` of them.
class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  void Pin(int count) {
    if (cpus_.size() <= static_cast<size_t>(count)) return;
    std::vector<std::pair<double, int>> timed;
    for (int cpu : cpus_) {
      if (!PinTo({cpu})) return;
      timed.emplace_back(ProbeMs(), cpu);
    }
    std::sort(timed.begin(), timed.end());
    std::vector<int> fastest;
    for (int i = 0; i < count; ++i) fastest.push_back(timed[i].second);
    PinTo(fastest);
  }

 private:
  static bool PinTo(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }

  /// About 0.3 ms on an uncontended core: eight independent multiply
  /// chains keep the core's integer units busy, as the tree build does.
  double ProbeMs() {
    const auto t0 = Clock::now();
    uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 40000; ++i) {
      for (int k = 0; k < 8; ++k) {
        a[k] = a[k] * 6364136223846793005ULL + (a[(k + 1) & 7] >> 7);
      }
    }
    for (uint64_t v : a) sink_ = sink_ ^ v;
    return MsSince(t0);
  }

  std::vector<int> cpus_;
  volatile uint64_t sink_ = 0;  ///< keeps the probe loop from being elided
};

/// Process CPU time (user + system) in ms.
double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Returns freed heap to the kernel and restarts the VmHWM peak-RSS
/// counter at the current RSS, so the peak covers only what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(TrimWhitespace(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// FNV-1a digest of a file's bytes; 0 when it cannot be read.
uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return obs::Fnv1a64(bytes.str());
}

/// A JSON number with every digit the double carries (shortest form that
/// parses back to the same value).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// Order statistics of one metric's samples. Quartiles interpolate
/// linearly between order statistics. A run makes 40 to 90 passes, so p75
/// is the highest percentile with ten samples beyond it.
struct Summary {
  size_t n = 0;
  double median = 0.0, p25 = 0.0, p75 = 0.0, min = 0.0, max = 0.0;
};

Summary Summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto quantile = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  s.n = v.size();
  s.median = quantile(0.5);
  s.p25 = quantile(0.25);
  s.p75 = quantile(0.75);
  s.min = v.front();
  s.max = v.back();
  return s;
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  uint64_t seed = 2003;
  double seconds = kDefaultSeconds;
  bool trace = false;  ///< final line carries the per-layer metrics
  std::string out = ".bench_build/e2e";
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME|all [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                 [--out DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (value != "all" && FindWorkload(value) == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
      opts->workload = value;
    } else if (arg == "--seed") {
      int64_t seed = 0;
      if (!ParseIntFlag(arg, value, 0, std::numeric_limits<int64_t>::max(),
                        &seed)) {
        return false;
      }
      opts->seed = static_cast<uint64_t>(seed);
    } else if (arg == "--seconds") {
      if (!ParseDoubleFlag(arg, value, 0.0, 3600.0, &opts->seconds)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "invalid value '%s' for --trace: expected 0 or "
                     "1\n", value.c_str());
        return false;
      }
      opts->trace = value == "1";
    } else if (arg == "--out") {
      if (value.empty()) {
        std::fprintf(stderr, "--out needs a directory\n");
        return false;
      }
      opts->out = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: polluted QUIS inputs written to the work directory.

struct Inputs {
  std::string data_path;  ///< the file every timed pass reads
  std::string csv_path;   ///< the same rows as CSV (the control pass input)
  std::string model_path;          ///< quis_model_check only
  std::vector<uint8_t> corrupted;  ///< pollution truth bit per data row
};

/// Takes the next `rows` records of the QUIS stream through the default
/// polluter mix at factor 1.0, one chunk at a time, into a CSV file, and
/// appends each dirty row's truth bit to `corrupted`.
Status WritePollutedQuisCsv(QuisStreamGenerator* gen, size_t rows,
                            uint64_t pollution_seed, const std::string& path,
                            std::vector<uint8_t>* corrupted) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "'");
  corrupted->clear();
  CsvOptions write_options;
  Table chunk;
  for (uint64_t index = 0, written = 0; written < rows; ++index) {
    DQ_RETURN_NOT_OK(
        gen->NextChunk(std::min<size_t>(kChunkRows, rows - written), &chunk));
    if (chunk.num_rows() == 0) return Status::Internal("QUIS stream ran dry");
    written += chunk.num_rows();
    const PollutionPipeline pipeline(
        DefaultPolluterMix(), TaskSeed(pollution_seed ^ 0x51ULL, index), 1.0);
    DQ_ASSIGN_OR_RETURN(PollutionResult dirty, pipeline.Apply(chunk));
    write_options.write_header = index == 0;
    DQ_RETURN_NOT_OK(WriteCsv(dirty.dirty, &out, write_options));
    corrupted->insert(corrupted->end(), dirty.is_corrupted.begin(),
                      dirty.is_corrupted.end());
  }
  out.flush();
  if (!out) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

size_t TrainRows(const Workload& w) {
  return w.pipeline == Pipeline::kModelCheck ? kModelTrainRows : 0;
}

/// The QUIS stream of the paper's seed, long enough for the workload's
/// training rows (if any) and the audited rows that follow them.
Result<QuisStreamGenerator> OpenQuisStream(const Workload& w) {
  QuisConfig quis;
  quis.num_records = TrainRows(w) + w.rows;
  quis.seed = kQuisSeed;
  return QuisStreamGenerator::Create(quis);
}

Result<Inputs> SetUp(const Workload& w, const Options& opts,
                     const fs::path& work) {
  Inputs in;
  const Schema schema = MakeQuisSchema();
  const size_t train_rows = TrainRows(w);
  DQ_ASSIGN_OR_RETURN(QuisStreamGenerator gen, OpenQuisStream(w));
  if (w.pipeline == Pipeline::kModelCheck) {
    // The asynchronous regime: the model is induced off-line on the first
    // records and persisted; the timed passes load it and check the
    // records that follow.
    const std::string train_path = (work / "train.csv").string();
    std::vector<uint8_t> train_truth;
    DQ_RETURN_NOT_OK(WritePollutedQuisCsv(&gen, train_rows, kQuisSeed,
                                          train_path, &train_truth));
    DQ_ASSIGN_OR_RETURN(Table train, ReadTableFile(IngestFormat::kCsv, schema,
                                                   train_path, CsvOptions()));
    AuditorConfig config;
    config.num_threads = 1;
    DQ_ASSIGN_OR_RETURN(AuditModel model, Auditor(config).Induce(train));
    in.model_path = (work / "model.dqmodel").string();
    DQ_RETURN_NOT_OK(StructureModel::FromAuditModel(model, schema)
                         .SaveToFile(in.model_path));
    fs::remove(train_path);
  }
  in.csv_path = (work / "data.csv").string();
  DQ_RETURN_NOT_OK(WritePollutedQuisCsv(&gen, w.rows,
                                        opts.seed + w.seed_offset,
                                        in.csv_path, &in.corrupted));
  in.data_path = in.csv_path;
  if (w.format == IngestFormat::kDqcol) {
    DQ_ASSIGN_OR_RETURN(Table table, ReadTableFile(IngestFormat::kCsv, schema,
                                                   in.csv_path, CsvOptions()));
    in.data_path = (work / "data.dqcol").string();
    DQ_RETURN_NOT_OK(WriteTableFile(table, IngestFormat::kDqcol, in.data_path,
                                    CsvOptions()));
  }
  return in;
}

/// The reference input detection is scored on: the workload's audited rows
/// polluted with kQuisSeed instead of --seed, as CSV. Written once, outside
/// the timed set-up.
Status WriteReferenceInput(const Workload& w, const std::string& path,
                           std::vector<uint8_t>* corrupted) {
  DQ_ASSIGN_OR_RETURN(QuisStreamGenerator gen, OpenQuisStream(w));
  Table chunk;
  for (size_t skipped = 0; skipped < TrainRows(w);) {
    DQ_RETURN_NOT_OK(
        gen.NextChunk(std::min(kChunkRows, TrainRows(w) - skipped), &chunk));
    if (chunk.num_rows() == 0) return Status::Internal("QUIS stream ran dry");
    skipped += chunk.num_rows();
  }
  return WritePollutedQuisCsv(&gen, w.rows, kQuisSeed + w.seed_offset, path,
                              corrupted);
}

// ---------------------------------------------------------------------------
// One file-to-report pass.

struct PassSpec {
  std::string data_path;
  int threads = 1;
  uint64_t memory_budget = 0;  ///< streaming only; 0 = never spill
};

struct WorkPaths {
  std::string report;
  std::string spill;
  std::string model;
};

/// What one pass measured. The *_ms fields are the bench-side spans around
/// each public call; they are measured on every pass and recorded into the
/// tracer only on the traced one.
struct PassResult {
  double wall_ms = 0.0;
  size_t rows = 0;
  std::vector<size_t> flagged_rows;
  double schema_ms = 0.0, ingest_ms = 0.0, induce_ms = 0.0, audit_ms = 0.0;
  double model_load_ms = 0.0, check_ms = 0.0, stream_ms = 0.0;
  double report_ms = 0.0;
  uint64_t table_bytes = 0;
  size_t model_rules = 0;
  size_t sampled_rows = 0;
  SegmentStore::Stats store;

  double SpannedMs() const {
    return schema_ms + ingest_ms + induce_ms + audit_ms + model_load_ms +
           check_ms + stream_ms + report_ms;
  }
};

/// The pipeline dqaudit runs for the workload, from the schema spec to the
/// report file. The wall clock stops once the report is written.
Result<PassResult> RunPass(const Workload& w, const PassSpec& spec,
                           const WorkPaths& paths) {
  PassResult out;
  const auto t0 = Clock::now();
  Schema schema;
  {
    obs::Span span("e2e.schema_load", -1, &out.schema_ms);
    DQ_ASSIGN_OR_RETURN(schema, ParseSchemaSpecFile(DQ_E2E_SPEC_PATH));
  }
  CsvOptions csv;
  csv.num_threads = spec.threads;
  AuditorConfig config;
  config.num_threads = spec.threads;
  const IngestFormat format = InferIngestFormat(spec.data_path);

  if (w.pipeline == Pipeline::kStream) {
    StreamAuditOptions stream;
    stream.sample_rows = kSampleRows;
    stream.store.segment_rows = kSegmentRows;
    stream.store.memory_budget_bytes = spec.memory_budget;
    stream.store.spill_dir = paths.spill;
    stream.csv = csv;
    stream.format = format;
    stream.auditor = config;
    StreamAuditResult result;
    {
      obs::Span span("e2e.stream", -1, &out.stream_ms);
      DQ_ASSIGN_OR_RETURN(result,
                          RunStreamingAudit(schema, spec.data_path, stream));
    }
    {
      obs::Span span("e2e.report_write", -1, &out.report_ms);
      DQ_RETURN_NOT_OK(WriteStreamAuditReportCsvFile(result.suspicious, schema,
                                                     paths.report));
    }
    out.wall_ms = MsSince(t0);
    out.rows = result.total_rows;
    out.sampled_rows = result.sampled_rows;
    out.store = result.store_stats;
    for (const Suspicion& s : result.suspicious) {
      out.flagged_rows.push_back(s.row);
    }
    return out;
  }

  Table data;
  {
    obs::Span span("e2e.ingest", -1, &out.ingest_ms);
    DQ_ASSIGN_OR_RETURN(data,
                        ReadTableFile(format, schema, spec.data_path, csv));
  }
  AuditReport report;
  if (w.pipeline == Pipeline::kModelCheck) {
    StructureModel model;
    {
      obs::Span span("e2e.model_load", -1, &out.model_load_ms);
      DQ_ASSIGN_OR_RETURN(model,
                          StructureModel::LoadFromFile(schema, paths.model));
    }
    {
      obs::Span span("e2e.check", -1, &out.check_ms);
      DQ_ASSIGN_OR_RETURN(report, model.Check(data, config));
    }
    out.model_rules = model.TotalRules();
  } else {
    const Auditor auditor(config);
    AuditModel model;
    {
      obs::Span span("e2e.induce", -1, &out.induce_ms);
      DQ_ASSIGN_OR_RETURN(model, auditor.Induce(data));
    }
    {
      obs::Span span("e2e.audit", -1, &out.audit_ms);
      DQ_ASSIGN_OR_RETURN(report, auditor.Audit(model, data));
    }
  }
  {
    obs::Span span("e2e.report_write", -1, &out.report_ms);
    DQ_RETURN_NOT_OK(WriteAuditReportCsvFile(report, data, paths.report));
  }
  out.wall_ms = MsSince(t0);
  out.rows = data.num_rows();
  out.table_bytes = data.byte_size();
  for (const Suspicion& s : report.suspicious) {
    out.flagged_rows.push_back(s.row);
  }
  return out;
}

struct Detection {
  double sensitivity = 0.0;
  double specificity = 0.0;
};

/// Flags against the pollution truth bits (sec. 4.3): sensitivity is the
/// share of corrupted rows flagged, specificity the share of clean rows
/// left alone.
Detection Score(const std::vector<size_t>& flagged_rows,
                const std::vector<uint8_t>& corrupted) {
  std::vector<uint8_t> flagged(corrupted.size(), 0);
  for (size_t row : flagged_rows) {
    if (row < flagged.size()) flagged[row] = 1;
  }
  size_t tp = 0, fn = 0, tn = 0, fp = 0;
  for (size_t r = 0; r < corrupted.size(); ++r) {
    if (corrupted[r] != 0) {
      (flagged[r] != 0 ? tp : fn) += 1;
    } else {
      (flagged[r] != 0 ? fp : tn) += 1;
    }
  }
  Detection d;
  if (tp + fn > 0) {
    d.sensitivity = static_cast<double>(tp) / static_cast<double>(tp + fn);
  }
  if (tn + fp > 0) {
    d.specificity = static_cast<double>(tn) / static_cast<double>(tn + fp);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Trace analysis: self time per span name along the main thread.

struct TraceSpan {
  std::string name;
  int64_t tid = 0;
  double dur_ms = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;
};

/// Member `key` of a JSON object, or a null value when it is missing.
const obs::JsonValue& Member(const obs::JsonValue& object,
                             std::string_view key) {
  static const obs::JsonValue kMissing;
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr ? *value : kMissing;
}

/// The complete ("X") events of a Chrome trace exported by obs::Tracer.
std::vector<TraceSpan> ParseTraceSpans(const std::string& json) {
  std::vector<TraceSpan> spans;
  obs::JsonValue root;
  if (!obs::ParseJson(json, &root)) return spans;
  for (const obs::JsonValue& e : Member(root, "traceEvents").items) {
    if (Member(e, "ph").AsString() != "X") continue;
    const obs::JsonValue& args = Member(e, "args");
    TraceSpan s;
    s.name = Member(e, "name").AsString();
    s.tid = Member(e, "tid").AsInt64();
    s.dur_ms = Member(e, "dur").AsDouble() / 1e3;
    s.id = Member(args, "span_id").AsUint64();
    s.parent = Member(args, "parent_id").AsUint64();
    spans.push_back(std::move(s));
  }
  return spans;
}

struct SelfTime {
  std::string name;
  double ms = 0.0;
  bool main_thread = true;  ///< false: worker busy time, overlaps the wall
};

/// A span's self time is its duration minus its children on the same
/// thread (children on one thread never overlap). Along the thread that
/// ran the bench spans the self times add up to the spanned wall time;
/// spans on pool workers are busy time that overlaps it.
std::vector<SelfTime> SelfTimes(const std::vector<TraceSpan>& spans) {
  int64_t main_tid = -1;
  std::map<uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : spans) {
    by_id[s.id] = &s;
    if (main_tid < 0 && s.name.rfind("e2e.", 0) == 0) main_tid = s.tid;
  }
  std::map<uint64_t, double> child_ms;
  for (const TraceSpan& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && parent->second->tid == s.tid) {
      child_ms[s.parent] += s.dur_ms;
    }
  }
  std::vector<SelfTime> out;
  for (const TraceSpan& s : spans) {
    const bool main_thread = s.tid == main_tid;
    auto it = std::find_if(out.begin(), out.end(), [&](const SelfTime& t) {
      return t.name == s.name && t.main_thread == main_thread;
    });
    if (it == out.end()) {
      out.push_back({s.name, 0.0, main_thread});
      it = out.end() - 1;
    }
    it->ms += s.dur_ms - child_ms[s.id];
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SelfTime& a, const SelfTime& b) {
                     if (a.main_thread != b.main_thread) return a.main_thread;
                     return a.ms > b.ms;
                   });
  return out;
}

// ---------------------------------------------------------------------------
// One workload: measure, then turn the measurements into metrics.

/// Counts every pass and end-of-run check attempted, and the failures.
class Ledger {
 public:
  bool Record(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    }
    return ok;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Where a number was taken, beside what the run manifest records (build
/// type, seed, threads). Two runs compare only when both match.
struct Fingerprint {
  std::string cpu_model = CpuModel();
  int nproc = Nproc();
  std::string csv_scan = csvscan::SimdLevel();
  std::string split_kernels = kernels::SimdLevel();
  std::string compiler = __VERSION__;

  std::string Render() const {
    obs::JsonObjectWriter w;
    w.Add("cpu_model", cpu_model);
    w.Add("nproc", nproc);
    w.Add("csv_scan_simd", csv_scan);
    w.Add("split_kernel_simd", split_kernels);
    w.Add("compiler", compiler);
    return w.Render(0);
  }
};

/// Everything one workload run measured.
struct Measurement {
  size_t rows = 0;  ///< audited rows per pass
  uint64_t data_bytes = 0;
  uint64_t model_bytes = 0;
  std::vector<double> setup_s;
  std::vector<double> run_ms;  ///< timed passes, tracing off
  double peak_rss_mb = 0.0;
  Detection detection;  ///< on the reference input
  size_t flagged = 0;
  uint64_t digest = 0;  ///< the report every pass must reproduce

  // The traced pass.
  PassResult traced;
  uint64_t report_bytes = 0;
  double cpu_ms = 0.0;
  PoolStats pool;  ///< pools and tasks during the pass; peak depth so far
  std::map<std::string, uint64_t> counters;
  double table_bytes_gauge = 0.0;
  std::map<std::string, double> span_ms;  ///< library spans, summed by name
  std::string trace_json;

  double Spans(const std::string& name) const {
    auto it = span_ms.find(name);
    return it != span_ms.end() ? it->second : 0.0;
  }
};

/// Sets up, warms up, runs the timed and traced passes, the control pass
/// and the reference pass, and checks each. Returns false when the run
/// cannot go on.
bool Measure(const Workload& w, const Options& opts, const fs::path& work,
             obs::RunManifest* manifest, Ledger* ledger, Measurement* m) {
  auto fail = [&](const std::string& what, const Status& status) {
    std::fprintf(stderr, "bench_e2e: %s: %s: %s\n", w.name, what.c_str(),
                 status.ToString().c_str());
    return false;
  };

  // Set-up, repeated so its time is a median too; every repeat writes the
  // same files. Set-up runs on one thread.
  CpuPicker cpus;
  Inputs inputs;
  const auto setup_t0 = Clock::now();
  while (static_cast<int>(m->setup_s.size()) < kSetupRepeats ||
         MsSince(setup_t0) < kMinSetupSeconds * 1e3) {
    cpus.Pin(1);
    const auto t0 = Clock::now();
    auto set_up = SetUp(w, opts, work);
    m->setup_s.push_back(MsSince(t0) / 1e3);
    if (!set_up.ok()) return fail("set-up", set_up.status());
    inputs = std::move(*set_up);
  }
  m->rows = inputs.corrupted.size();
  m->data_bytes = FileBytes(inputs.data_path);
  m->model_bytes = FileBytes(inputs.model_path);
  std::printf("inputs: %zu rows, %.1f MB %s, %zu corrupted; set-up x%zu\n",
              m->rows, static_cast<double>(m->data_bytes) / 1e6,
              IngestFormatToString(w.format),
              static_cast<size_t>(std::count(inputs.corrupted.begin(),
                                             inputs.corrupted.end(), 1)),
              m->setup_s.size());

  WorkPaths paths;
  paths.report = (work / "report.csv").string();
  paths.spill = (work / "spill").string();
  paths.model = inputs.model_path;
  PassSpec spec;
  spec.data_path = inputs.data_path;
  spec.threads = manifest->threads_used;
  spec.memory_budget = w.pipeline == Pipeline::kStream ? kMemoryBudget : 0;

  // Every pass must reproduce the first report byte for byte, cover every
  // input row, and leave no spill directory behind.
  auto check_pass = [&](const Result<PassResult>& pass,
                        const std::string& what) {
    if (!pass.ok()) {
      return ledger->Record(false, what + ": " + pass.status().ToString());
    }
    const uint64_t digest = FileDigest(paths.report);
    if (m->digest == 0) m->digest = digest;
    const bool spill_left = fs::exists(paths.spill);
    return ledger->Record(
        digest == m->digest && digest != 0 && pass->rows == m->rows &&
            !spill_left,
        what + ": report digest " + obs::HashHex(digest) + " vs " +
            obs::HashHex(m->digest) + ", " + std::to_string(pass->rows) +
            " rows, spill dir " + (spill_left ? "left" : "gone"));
  };

  // Warm-up: fills caches and registers every counter; untimed.
  cpus.Pin(spec.threads);
  auto warm = RunPass(w, spec, paths);
  if (!check_pass(warm, "warm-up pass")) {
    return fail("warm-up", warm.ok() ? Status::Internal("check failed")
                                     : warm.status());
  }
  const Detection seeded = Score(warm->flagged_rows, inputs.corrupted);
  m->flagged = warm->flagged_rows.size();

  // Timed passes, tracing off: a closed loop with one client.
  ledger->Record(ResetPeakRss(), "reset peak RSS via /proc/self/clear_refs");
  const auto loop_t0 = Clock::now();
  while (static_cast<int>(m->run_ms.size()) < kMinRepeats ||
         MsSince(loop_t0) < opts.seconds * 1e3) {
    cpus.Pin(spec.threads);
    auto pass = RunPass(w, spec, paths);
    if (!check_pass(pass, "timed pass " + std::to_string(m->run_ms.size()))) {
      break;
    }
    m->run_ms.push_back(pass->wall_ms);
  }
  m->peak_rss_mb = PeakRssMb();

  // Traced pass: spans and counters for the per-layer profile.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  obs::MetricsRegistry::Global().Reset();
  cpus.Pin(spec.threads);
  const PoolStats pool0 = GlobalPoolStats();
  const double cpu0 = CpuMs();
  tracer.SetEnabled(true);
  auto traced = RunPass(w, spec, paths);
  tracer.SetEnabled(false);
  m->cpu_ms = CpuMs() - cpu0;
  const PoolStats pool1 = GlobalPoolStats();
  m->pool.pools_created = pool1.pools_created - pool0.pools_created;
  m->pool.tasks_executed = pool1.tasks_executed - pool0.tasks_executed;
  m->pool.peak_queue_depth = pool1.peak_queue_depth;
  if (check_pass(traced, "traced pass")) m->traced = std::move(*traced);
  m->report_bytes = FileBytes(paths.report);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  m->counters.insert(snapshot.counters.begin(), snapshot.counters.end());
  m->table_bytes_gauge = obs::GetGauge("table.bytes")->Value();
  for (const char* name :
       {"ingest", "induce", "induce.encode", "c45.build", "audit.score"}) {
    m->span_ms[name] = tracer.AggregateMs(name);
  }
  manifest->StampWallClock();
  m->trace_json = tracer.ToChromeTraceJson(manifest);
  const double spanned = m->traced.SpannedMs();
  ledger->Record(m->traced.wall_ms - spanned <= 0.03 * m->traced.wall_ms,
                 "time outside the bench spans over 3% of the traced wall");

  // Control pass: the reference configuration must give the same report —
  // one thread over the CSV for dqcol, no memory budget for streaming.
  if (w.format == IngestFormat::kDqcol || w.pipeline == Pipeline::kStream) {
    PassSpec control = spec;
    control.data_path = inputs.csv_path;
    control.threads = w.format == IngestFormat::kDqcol ? 1 : spec.threads;
    control.memory_budget = 0;
    check_pass(RunPass(w, control, paths),
               w.format == IngestFormat::kDqcol
                   ? "control pass (1-thread CSV)"
                   : "control pass (unbudgeted)");
  }

  // Reference pass: the same pipeline over the reference input, whose
  // flags give the reported sensitivity and specificity.
  PassSpec reference = spec;
  reference.data_path = (work / "reference.csv").string();
  std::vector<uint8_t> reference_truth;
  const Status written =
      WriteReferenceInput(w, reference.data_path, &reference_truth);
  if (!written.ok()) return fail("reference input", written);
  auto ref = RunPass(w, reference, paths);
  if (!ledger->Record(ref.ok() && ref->rows == reference_truth.size() &&
                          !fs::exists(paths.spill),
                      "reference pass")) {
    return fail("reference pass",
                ref.ok() ? Status::Internal("check failed") : ref.status());
  }
  m->detection = Score(ref->flagged_rows, reference_truth);

  for (const Detection& d : {seeded, m->detection}) {
    ledger->Record(d.specificity >= kMinSpecificity,
                   "specificity " + std::to_string(d.specificity) +
                       " below " + std::to_string(kMinSpecificity));
  }
  std::printf("detection on this seed's input: sensitivity %.6f, "
              "specificity %.6f\n",
              seeded.sensitivity, seeded.specificity);
  return true;
}

struct Metric {
  Metric(std::string metric, std::string metric_unit, double v,
         Summary samples = {})
      : name(std::move(metric)),
        unit(std::move(metric_unit)),
        value(v),
        spread(samples) {}

  std::string name;
  std::string unit;
  double value;
  Summary spread;       ///< timings only (n > 0)
  bool present = true;  ///< false: the program no longer exports the counter
};

/// The pass times enter as their fastest pass (see kWorkloads); their
/// median and quartiles are printed beside it.
std::vector<Metric> EndToEndMetrics(const Measurement& m) {
  const Summary setup = Summarize(m.setup_s);
  const Summary run = Summarize(m.run_ms);
  const double rows = static_cast<double>(m.rows);
  return {
      {"setup_s", "s", setup.median, setup},
      {"min_run_ms", "ms", run.min, run},
      {"peak_rows_per_s", "1/s", run.min > 0 ? rows / (run.min / 1e3) : 0.0},
      {"peak_rss_mb", "MB", m.peak_rss_mb},
      {"sensitivity", "ratio", m.detection.sensitivity},
      {"specificity", "ratio", m.detection.specificity},
  };
}

/// The per-layer profile of the traced pass. Library spans are summed by
/// name; on the threaded workloads a span that runs on several workers at
/// once (the streaming per-segment audit) sums their busy time.
std::vector<Metric> LayerMetrics(const Workload& w, const Measurement& m) {
  const PassResult& t = m.traced;
  const bool streaming = w.pipeline == Pipeline::kStream;
  auto counter = [&m](const std::string& name) {
    auto it = m.counters.find(name);
    Metric metric(name, "count",
                  it != m.counters.end() ? static_cast<double>(it->second)
                                         : 0.0);
    metric.present = it != m.counters.end();
    return metric;
  };
  auto per_second = [](double n, double ms) {
    return ms > 0 ? n / (ms / 1e3) : 0.0;
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double ingest_ms = m.Spans("ingest");
  const double induce_ms = m.Spans("induce");
  const double encode_ms = m.Spans("induce.encode");
  const double tree_ms = m.Spans("c45.build");
  const double score_ms = m.Spans("audit.score");
  const Metric scored = counter("audit.records_scored");
  const double run_median = Summarize(m.run_ms).median;
  return {
      {"table.schema_load_ms", "ms", t.schema_ms},
      {"table.ingest_ms", "ms", ingest_ms},
      {"table.ingest_mb_per_s", "MB/s",
       per_second(d(m.data_bytes) / 1e6, ingest_ms)},
      {"table.table_bytes", "bytes",
       streaming ? m.table_bytes_gauge : d(t.table_bytes)},
      {"segstore.spill_writes", "count", d(t.store.spill_writes)},
      {"segstore.spill_bytes_written", "bytes", d(t.store.spill_bytes_written)},
      {"segstore.spill_reads", "count", d(t.store.spill_reads)},
      {"segstore.spill_bytes_read", "bytes", d(t.store.spill_bytes_read)},
      {"segstore.evictions", "count", d(t.store.evictions)},
      {"segstore.resident_bytes_peak", "bytes", d(t.store.resident_bytes_peak)},
      {"segstore.write_amplification", "ratio",
       m.data_bytes > 0 ? d(t.store.spill_bytes_written) / d(m.data_bytes)
                        : 0.0},
      {"mining.induce_ms", "ms", induce_ms},
      {"mining.encode_ms", "ms", encode_ms},
      {"mining.tree_build_ms", "ms", tree_ms},
      {"mining.induce_other_ms", "ms", induce_ms - encode_ms - tree_ms},
      counter("c45.nodes_built"),
      counter("c45.splits_evaluated"),
      counter("c45.histogram_builds"),
      counter("c45.histogram_subtractions"),
      counter("c45.tree_nodes"),
      counter("audit.encode_builds"),
      {"audit.score_ms", "ms", score_ms},
      {"audit.score_rows_per_s", "1/s", per_second(scored.value, score_ms)},
      scored,
      counter("audit.suspicions_flagged"),
      {"audit.model_load_ms", "ms", t.model_load_ms},
      {"audit.model_bytes", "bytes", d(m.model_bytes)},
      {"audit.model_rules", "count", d(t.model_rules)},
      {"audit.check_ms", "ms", t.check_ms},
      {"audit.check_rows_per_s", "1/s", per_second(d(t.rows), t.check_ms)},
      {"audit.stream_ms", "ms", t.stream_ms},
      {"stream.ingest_ms", "ms", streaming ? ingest_ms : 0.0},
      {"stream.induce_ms", "ms", streaming ? induce_ms : 0.0},
      {"stream.audit_ms", "ms",
       streaming ? t.stream_ms - ingest_ms - induce_ms : 0.0},
      {"stream.sampled_rows", "count", d(t.sampled_rows)},
      {"audit.report_write_ms", "ms", t.report_ms},
      {"audit.report_bytes", "bytes", d(m.report_bytes)},
      {"pool.pools_created", "count", d(m.pool.pools_created)},
      {"pool.tasks_executed", "count", d(m.pool.tasks_executed)},
      {"pool.peak_queue_depth", "count", d(m.pool.peak_queue_depth)},
      {"run.traced_wall_ms", "ms", t.wall_ms},
      {"run.cpu_ms", "ms", m.cpu_ms},
      {"run.cpu_per_wall", "ratio", t.wall_ms > 0 ? m.cpu_ms / t.wall_ms : 0.0},
      {"run.outside_spans_ms", "ms", t.wall_ms - t.SpannedMs()},
      {"trace.overhead_pct", "%",
       run_median > 0 ? (t.wall_ms - run_median) / run_median * 100.0 : 0.0},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool full) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (!m.present) continue;
    out += out.size() > 1 ? ", " : "";
    out += "\"" + obs::JsonEscape(m.name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + obs::JsonEscape(m.unit) +
           "\"";
    if (full && m.spread.n > 0) {
      out += ", \"n\": " + std::to_string(m.spread.n) +
             ", \"median\": " + JsonNumber(m.spread.median) +
             ", \"p25\": " + JsonNumber(m.spread.p25) +
             ", \"p75\": " + JsonNumber(m.spread.p75) +
             ", \"min\": " + JsonNumber(m.spread.min) +
             ", \"max\": " + JsonNumber(m.spread.max);
    }
    out += "}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics, false) + "}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!m.present) {
      std::printf("  %-30s %-5s %14s\n", m.name.c_str(), m.unit.c_str(),
                  "absent");
    } else if (m.spread.n > 0) {
      std::printf("  %-30s %-5s %14.6g  n %-3zu median %-10.6g p25 %-10.6g "
                  "p75 %-10.6g min %-10.6g max %.6g\n",
                  m.name.c_str(), m.unit.c_str(), m.value, m.spread.n,
                  m.spread.median, m.spread.p25, m.spread.p75, m.spread.min,
                  m.spread.max);
    } else {
      std::printf("  %-30s %-5s %14.6g\n", m.name.c_str(), m.unit.c_str(),
                  m.value);
    }
  }
}

/// Self time along the main thread adds up to the traced wall together with
/// the remainder outside every span; worker busy time is listed apart.
void PrintSelfTimes(const Measurement& m) {
  const double wall = m.traced.wall_ms;
  auto share = [wall](double ms) {
    return wall > 0 ? ms / wall * 100.0 : 0.0;
  };
  std::printf("self time (traced pass, wall %.3f ms):\n", wall);
  const std::vector<SelfTime> self = SelfTimes(ParseTraceSpans(m.trace_json));
  for (const SelfTime& s : self) {
    if (s.main_thread) {
      std::printf("  %-30s %10.3f ms %6.2f%%\n", s.name.c_str(), s.ms,
                  share(s.ms));
    }
  }
  const double outside = wall - m.traced.SpannedMs();
  std::printf("  %-30s %10.3f ms %6.2f%%\n", "(outside every span)", outside,
              share(outside));
  for (const SelfTime& s : self) {
    if (!s.main_thread) {
      std::printf("  %-30s %10.3f ms  on pool workers, overlaps the above\n",
                  s.name.c_str(), s.ms);
    }
  }
}

int RunWorkload(const Workload& w, const Options& opts, int argc,
                char** argv) {
  const Fingerprint fp;
  const int threads = w.parallel ? std::min(kParallelThreads, fp.nproc) : 1;
  obs::RunManifest manifest = obs::MakeRunManifest("bench_e2e", argc, argv);
  manifest.seed = opts.seed;
  manifest.threads_requested = threads;
  manifest.threads_used = threads;
  std::printf("# bench_e2e %s (seed %llu)\n", w.name,
              static_cast<unsigned long long>(opts.seed));
  std::printf("machine: cpu \"%s\", nproc %d, csv scan %s, split kernels %s, "
              "compiler %s, build %s, threads %d, seed %llu\n",
              fp.cpu_model.c_str(), fp.nproc, fp.csv_scan.c_str(),
              fp.split_kernels.c_str(), fp.compiler.c_str(),
              manifest.build_type.c_str(), threads,
              static_cast<unsigned long long>(manifest.seed));
  std::printf("why: %s\n", w.why);

  const fs::path out_dir = opts.out;
  const fs::path work = out_dir / ("work-" + std::string(w.name));
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                 work.string().c_str(), ec.message().c_str());
    return 1;
  }
  Ledger ledger;
  Measurement m;
  const bool measured = Measure(w, opts, work, &manifest, &ledger, &m);
  fs::remove_all(work, ec);
  if (!measured) return 1;
  ledger.Record(!fs::exists(work), "work dir " + work.string() + " removed");

  const std::string trace_path =
      (out_dir / (std::string(w.name) + ".trace.json")).string();
  {
    std::ofstream trace_file(trace_path, std::ios::binary | std::ios::trunc);
    trace_file << m.trace_json;
    ledger.Record(static_cast<bool>(trace_file), "write " + trace_path);
  }

  const std::vector<Metric> e2e = EndToEndMetrics(m);
  std::vector<Metric> layers = LayerMetrics(w, m);
  const bool correct = ledger.failed() == 0;
  const double fail_share = static_cast<double>(ledger.failed()) /
                            static_cast<double>(ledger.attempted());
  std::printf("end-to-end (closed loop, 1 client, tracing off):\n");
  PrintMetrics(e2e);
  std::printf("  %-30s %-5s %14.6g  (%zu failed of %zu passes and checks)\n",
              "fail_share", "ratio", fail_share, ledger.failed(),
              ledger.attempted());
  std::printf("per-layer (traced pass):\n");
  PrintMetrics(layers);
  PrintSelfTimes(m);
  std::printf("report: %zu flagged, digest %s; trace: %s\n", m.flagged,
              obs::HashHex(m.digest).c_str(), trace_path.c_str());

  // BENCH_e2e_<workload>.json: everything printed above, machine-readable.
  obs::JsonObjectWriter bench;
  bench.Add("schema_version", 1);
  bench.Add("bench", "e2e_" + std::string(w.name));
  bench.Add("workload", w.name);
  bench.Add("why", w.why);
  bench.AddRaw("fingerprint", fp.Render());
  manifest.AppendTo(&bench, 0);
  bench.Add("correct", correct);
  bench.Add("attempted", static_cast<unsigned long long>(ledger.attempted()));
  bench.Add("failed", static_cast<unsigned long long>(ledger.failed()));
  bench.AddRaw("fail_share", JsonNumber(fail_share));
  bench.Add("report_digest", obs::HashHex(m.digest));
  bench.AddRaw("end_to_end", MetricsJson(e2e, true));
  bench.AddRaw("per_layer", MetricsJson(layers, true));
  std::string absent;
  for (const Metric& metric : layers) {
    if (metric.present) continue;
    absent += (absent.empty() ? "\"" : ", \"") + metric.name + "\"";
  }
  bench.AddRaw("absent", "[" + absent + "]");
  const std::string bench_path =
      (out_dir / ("BENCH_e2e_" + std::string(w.name) + ".json")).string();
  {
    std::ofstream bench_file(bench_path, std::ios::binary | std::ios::trunc);
    bench_file << bench.Render() << "\n";
    if (!bench_file) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", bench_path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s\n", bench_path.c_str());

  // The result line names every metric: a counter the program no longer
  // exports reads 0 there (the table and the BENCH file say "absent").
  for (Metric& metric : layers) metric.present = true;
  std::printf("%s\n", ResultLine(correct, ledger.attempted(), ledger.failed(),
                                 opts.trace ? layers : e2e)
                          .c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --workload all: one child process per workload.

int RunAll(const Options& opts, int argc, char** argv) {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> digests;
  for (const Workload& w : kWorkloads) {
    // The child's BENCH file carries its result back; never read a stale one.
    const fs::path path =
        fs::path(opts.out) / ("BENCH_e2e_" + std::string(w.name) + ".json");
    std::error_code ec;
    fs::remove(path, ec);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("bench_e2e: fork");
      return 1;
    }
    if (pid == 0) {
      const int code = RunWorkload(w, opts, argc, argv);
      std::fflush(stdout);
      _exit(code);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      correct = false;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    obs::JsonValue bench;
    if (!in || !obs::ParseJson(text.str(), &bench)) {
      std::fprintf(stderr, "bench_e2e: no result from %s\n", w.name);
      correct = false;
      ++attempted;
      ++failed;
      continue;
    }
    attempted += Member(bench, "attempted").AsUint64();
    failed += Member(bench, "failed").AsUint64();
    digests[w.name] = Member(bench, "report_digest").AsString();
    for (const auto& [name, value] :
         Member(bench, opts.trace ? "per_layer" : "end_to_end").members) {
      metrics.emplace_back(std::string(w.name) + "." + name,
                           Member(value, "unit").AsString(),
                           Member(value, "value").AsDouble());
    }
  }
  // The classic CSV and dqcol workloads audit the same rows: their reports
  // must be byte-identical.
  ++attempted;
  if (digests["quis_csv_serial"] != digests["quis_dqcol_parallel"]) {
    std::fprintf(stderr, "bench_e2e: quis_csv_serial and quis_dqcol_parallel "
                 "reports differ\n");
    ++failed;
  }
  correct = correct && failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  if (opts.workload == "all") return RunAll(opts, argc, argv);
  return RunWorkload(*FindWorkload(opts.workload), opts, argc, argv);
}
