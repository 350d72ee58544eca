// dqaudit — command-line data auditing for CSV files.
//
// Usage:
//   dqaudit --schema spec.txt --data table.csv [options]
//
// Options:
//   --schema FILE      schema specification (see table/schema_spec.h)
//   --data FILE        data to audit (CSV needs a header row)
//   --train FILE       data to induce on (default: the audit data;
//                      sec. 2.2's asynchronous regime)
//   --format FMT       on-disk format of --data and --train: csv or dqcol
//                      (default: infer from the extension — '.dqcol' means
//                      dqcol, anything else CSV). The audit report is byte
//                      identical across formats for a faithfully converted
//                      file (see dqconvert)
//   --min-conf X       minimal error confidence (default 0.8)
//   --level X          confidence level for the bounds (default 0.95)
//   --inducer NAME     c45 | naive-bayes | knn | oner (default c45)
//   --split-mode MODE  c4.5 split evaluator: histogram (default; binned
//                      scans, sibling subtraction; trees spread over threads)
//                      or exact (the reference SLIQ row sweep)
//   --save-model FILE  persist the induced structure model (dqmodel v2)
//   --load-model FILE  skip induction, check against a persisted model; the
//                      report equals an audit with the saved model.
//                      Incompatible with --train and --explain
//   --top N            print the N strongest suspicions (default 20)
//   --explain N        print review sheets for the top N suspicions
//   --rules            print the induced structure model
//   --corrected FILE   write the auto-corrected table as CSV
//   --report FILE      write the ranked suspicions as CSV
//   --summary          print the per-attribute flag summary (including
//                      per-attribute induction times)
//   --threads N        worker threads for induction/checking
//                      (default 0 = hardware concurrency; any non-positive
//                      value means the hardware default; results are
//                      identical for every thread count)
//   --memory-budget N  out-of-core mode: stream the audit with at most N
//                      bytes of resident table data (suffixes K/M/G/T,
//                      e.g. 64M). Induction trains on a reservoir sample
//                      (--sample-rows); segments past the budget spill to
//                      --spill-dir. The ranked report is identical for
//                      every budget. Incompatible with --train,
//                      --load-model, --corrected, --explain, --summary and
//                      --rules-file (they need the whole table in RAM)
//   --sample-rows N    reservoir sample size for streaming induction
//                      (default 200000; >= the row count trains on the
//                      full table and reproduces the in-memory audit
//                      exactly)
//   --spill-dir DIR    where streaming segments spill (default:
//                      <data>.spill, removed after the run)
//   --segment-rows N   rows per streaming segment (default 65536; the
//                      paging granularity — smaller segments spill sooner.
//                      Results are identical for every value)
//   --rules-file FILE  expert-written TDG rules (sec. 3.2) checked
//                      deterministically against the data: per-rule
//                      violation counts plus example rows
//   --lint             run the dqlint check battery over --rules-file
//                      before auditing; lint errors abort with exit code 1
//   --on-error MODE    fail (default): abort on the first malformed CSV
//                      record; skip: quarantine malformed records into an
//                      ingest report and audit the survivors
//   --ingest-report F  write the ingest quarantine report as JSON
//   --trace-out FILE   write the span tree of the run as Chrome trace-event
//                      JSON (load in Perfetto / chrome://tracing); the tree
//                      is identical for every --threads value
//   --metrics-out FILE write the metrics registry snapshot (counters,
//                      gauges, histograms) as JSON, with the run manifest
//   --history DIR      append one run-history record (manifest + audit
//                      summary + metrics snapshot) to DIR/history.jsonl;
//                      dqmon reads the ledger back for drift detection
//   --history-max-runs N
//                      compact the ledger after appending: keep only the
//                      newest N records (kept lines stay byte-identical;
//                      damaged lines are dropped). Requires --history
//   --log-level LEVEL  debug | info | warn | error | off (default info)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/review.h"
#include "audit/rule_export.h"
#include "audit/stream_audit.h"
#include "audit/summary.h"
#include "audit/structure_model.h"
#include "common/parallel.h"
#include "lint/lint.h"
#include "logic/rule_parser.h"
#include "obs/history.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/schema_spec.h"
#include "flag_parse.h"

using namespace dq;

namespace {

struct Options {
  std::string schema_path;
  std::string data_path;
  std::string train_path;
  std::string save_model_path;
  std::string load_model_path;
  std::string corrected_path;
  std::string report_path;
  std::string rules_path;
  std::string on_error = "fail";
  std::string ingest_report_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string history_dir;
  std::string format;  ///< "", "csv" or "dqcol"; "" = infer from extension
  size_t history_max_runs = 0;  ///< 0 = never compact
  double min_conf = 0.8;
  double level = 0.95;
  std::string inducer = "c45";
  std::string split_mode = "histogram";
  int top = 20;
  int explain = 0;
  int threads = 0;
  uint64_t memory_budget = 0;  ///< 0 = classic in-memory audit
  size_t sample_rows = 200000;
  size_t segment_rows = 65536;
  std::string spill_dir;
  bool print_rules = false;
  bool print_summary = false;
  bool lint = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dqaudit --schema spec.txt --data table.csv\n"
               "  [--train t.csv] [--format csv|dqcol]\n"
               "  [--min-conf 0.8] [--level 0.95]\n"
               "  [--inducer c45|naive-bayes|knn|oner]\n"
               "  [--split-mode histogram|exact] [--save-model m]\n"
               "  [--load-model m] [--top 20] [--explain 5] [--rules]\n"
               "  [--corrected out.csv] [--report report.csv]\n"
               "  [--summary] [--threads 0] [--rules-file r.rules] [--lint]\n"
               "  [--memory-budget 64M] [--sample-rows 200000]\n"
               "  [--spill-dir DIR] [--segment-rows 65536]\n"
               "  [--on-error fail|skip] [--ingest-report report.json]\n"
               "  [--trace-out trace.json] [--metrics-out metrics.json]\n"
               "  [--history DIR] [--history-max-runs N]\n"
               "  [--log-level debug|info|warn|error|off]\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--schema" && need_value(&opts->schema_path)) continue;
    if (arg == "--data" && need_value(&opts->data_path)) continue;
    if (arg == "--train" && need_value(&opts->train_path)) continue;
    if (arg == "--save-model" && need_value(&opts->save_model_path)) continue;
    if (arg == "--load-model" && need_value(&opts->load_model_path)) continue;
    if (arg == "--corrected" && need_value(&opts->corrected_path)) continue;
    if (arg == "--report" && need_value(&opts->report_path)) continue;
    if (arg == "--rules-file" && need_value(&opts->rules_path)) continue;
    if (arg == "--inducer" && need_value(&opts->inducer)) continue;
    if (arg == "--split-mode" && need_value(&opts->split_mode)) continue;
    if (arg == "--on-error" && need_value(&opts->on_error)) continue;
    if (arg == "--ingest-report" && need_value(&opts->ingest_report_path)) {
      continue;
    }
    if (arg == "--trace-out" && need_value(&opts->trace_out_path)) continue;
    if (arg == "--metrics-out" && need_value(&opts->metrics_out_path)) {
      continue;
    }
    if (arg == "--history" && need_value(&opts->history_dir)) continue;
    if (arg == "--history-max-runs" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 1,
                         std::numeric_limits<int64_t>::max(),
                         &opts->history_max_runs)) {
        return false;
      }
      continue;
    }
    if (arg == "--format" && need_value(&opts->format)) continue;
    if (arg == "--log-level" && need_value(&value)) {
      if (!ParseLogLevelFlag(arg, value)) return false;
      continue;
    }
    if (arg == "--min-conf" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1.0, &opts->min_conf)) {
        return false;
      }
      continue;
    }
    if (arg == "--level" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1.0, &opts->level)) return false;
      continue;
    }
    if (arg == "--top" && need_value(&value)) {
      if (!ParseIntFlag32(arg, value, 0, std::numeric_limits<int>::max(),
                          &opts->top)) {
        return false;
      }
      continue;
    }
    if (arg == "--explain" && need_value(&value)) {
      if (!ParseIntFlag32(arg, value, 0, std::numeric_limits<int>::max(),
                          &opts->explain)) {
        return false;
      }
      continue;
    }
    if (arg == "--threads" && need_value(&value)) {
      // Any non-positive value is normalized to the hardware default by
      // ResolveThreadCount; the parse only rejects non-numbers.
      if (!ParseIntFlag32(arg, value, std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max(), &opts->threads)) {
        return false;
      }
      continue;
    }
    if (arg == "--memory-budget" && need_value(&value)) {
      if (!ParseByteSizeFlag(arg, value, /*require_positive=*/true,
                             &opts->memory_budget)) {
        return false;
      }
      continue;
    }
    if (arg == "--sample-rows" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 1,
                         std::numeric_limits<int64_t>::max(),
                         &opts->sample_rows)) {
        return false;
      }
      continue;
    }
    if (arg == "--spill-dir" && need_value(&opts->spill_dir)) continue;
    if (arg == "--segment-rows" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 1,
                         std::numeric_limits<int64_t>::max(),
                         &opts->segment_rows)) {
        return false;
      }
      continue;
    }
    if (arg == "--rules") {
      opts->print_rules = true;
      continue;
    }
    if (arg == "--summary") {
      opts->print_summary = true;
      continue;
    }
    if (arg == "--lint") {
      opts->lint = true;
      continue;
    }
    std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
    return false;
  }
  if (opts->schema_path.empty() || opts->data_path.empty()) {
    return false;
  }
  if (opts->lint && opts->rules_path.empty()) {
    std::fprintf(stderr, "--lint requires --rules-file\n");
    return false;
  }
  if (opts->on_error != "fail" && opts->on_error != "skip") {
    std::fprintf(stderr, "--on-error must be 'fail' or 'skip'\n");
    return false;
  }
  if (opts->history_max_runs > 0 && opts->history_dir.empty()) {
    std::fprintf(stderr, "--history-max-runs requires --history\n");
    return false;
  }
  if (opts->split_mode != "histogram" && opts->split_mode != "exact") {
    std::fprintf(stderr, "--split-mode must be 'histogram' or 'exact'\n");
    return false;
  }
  if (!opts->load_model_path.empty() &&
      (!opts->train_path.empty() || opts->explain > 0)) {
    // A persisted model has no training table and keeps no classifiers to
    // explain with.
    std::fprintf(stderr,
                 "--load-model is incompatible with --train and --explain\n");
    return false;
  }
  if (opts->memory_budget > 0) {
    // The streaming audit never holds the whole table, so every feature
    // that random-accesses it is off the table too.
    if (!opts->train_path.empty() || !opts->load_model_path.empty() ||
        !opts->corrected_path.empty() || !opts->rules_path.empty() ||
        opts->explain > 0 || opts->print_summary) {
      std::fprintf(stderr,
                   "--memory-budget is incompatible with --train, "
                   "--load-model, --corrected, --rules-file, --explain and "
                   "--summary\n");
      return false;
    }
  }
  return true;
}

Result<InducerKind> InducerFromName(const std::string& name) {
  if (name == "c45") return InducerKind::kC45;
  if (name == "naive-bayes") return InducerKind::kNaiveBayes;
  if (name == "knn") return InducerKind::kKnn;
  if (name == "oner") return InducerKind::kOneR;
  return Status::InvalidArgument("unknown inducer '" + name + "'");
}

int Fail(const Status& status) {
  DQ_LOG_ERROR("dqaudit", "%s", status.ToString().c_str());
  return 1;
}

/// Everything the mode stages read, resolved from the flags once.
struct RunConfig {
  Options opts;
  Schema schema;
  IngestFormat data_format = IngestFormat::kCsv;
  IngestFormat train_format = IngestFormat::kCsv;
  CsvOptions csv;
  AuditorConfig auditor;
};

/// What a mode stage hands the shared tail.
struct AuditRun {
  size_t records = 0;  ///< records audited
  /// The ranked suspicions are `report.suspicious`; the streaming stage
  /// keeps no per-record vectors, so it fills nothing else.
  AuditReport report;
  std::optional<Table> data;        ///< in-memory stages: --summary, --corrected
  std::optional<AuditModel> model;  ///< induce-then-audit: --explain, --summary
  /// Violations per --rules-file rule, for the history record.
  std::vector<std::pair<std::string, uint64_t>> rule_violations;
};

obs::RunManifest MakeManifest(const Options& opts, int argc, char** argv) {
  obs::RunManifest manifest = obs::MakeRunManifest("dqaudit", argc, argv);
  manifest.threads_requested = opts.threads;
  manifest.threads_used = ResolveThreadCount(opts.threads);
  (void)obs::AddInputFileHash(&manifest, "schema", opts.schema_path);
  (void)obs::AddInputFileHash(&manifest, "data", opts.data_path);
  if (!opts.train_path.empty()) {
    (void)obs::AddInputFileHash(&manifest, "train", opts.train_path);
  }
  if (!opts.rules_path.empty()) {
    (void)obs::AddInputFileHash(&manifest, "rules", opts.rules_path);
  }
  if (!opts.load_model_path.empty()) {
    (void)obs::AddInputFileHash(&manifest, "model", opts.load_model_path);
  }
  return manifest;
}

Result<RunConfig> Configure(const Options& opts) {
  RunConfig run;
  run.opts = opts;
  DQ_ASSIGN_OR_RETURN(run.schema, ParseSchemaSpecFile(opts.schema_path));
  // --format pins both inputs; otherwise each path's extension decides.
  run.data_format = InferIngestFormat(opts.data_path);
  run.train_format = InferIngestFormat(opts.train_path);
  if (!opts.format.empty()) {
    DQ_ASSIGN_OR_RETURN(run.data_format, IngestFormatFromName(opts.format));
    run.train_format = run.data_format;
  }
  run.csv.on_error = opts.on_error == "skip" ? CsvErrorPolicy::kSkipAndReport
                                             : CsvErrorPolicy::kFail;
  run.csv.num_threads = opts.threads;

  run.auditor.min_error_confidence = opts.min_conf;
  run.auditor.confidence_level = opts.level;
  run.auditor.num_threads = opts.threads;
  DQ_ASSIGN_OR_RETURN(run.auditor.inducer, InducerFromName(opts.inducer));
  run.auditor.c45.split_mode = opts.split_mode == "exact"
                                   ? SplitMode::kExact
                                   : SplitMode::kHistogram;
  return run;
}

/// Prints the quarantine summary of a load that dropped records and writes
/// --ingest-report.
Status ReportIngest(const IngestReport& ingest, const Options& opts) {
  if (ingest.HasErrors()) {
    std::printf("ingest: %s\n", ingest.Summary().c_str());
    std::fputs(ingest.RenderText().c_str(), stderr);
  }
  if (opts.ingest_report_path.empty()) return Status::OK();
  DQ_RETURN_NOT_OK(ingest.WriteJsonFile(opts.ingest_report_path));
  std::printf("wrote ingest report to %s\n", opts.ingest_report_path.c_str());
  return Status::OK();
}

/// --rules and --save-model for an induced model.
Status OutputModel(const AuditModel& model, const Schema& schema,
                   const Options& opts) {
  if (opts.print_rules) {
    std::printf("%s", RenderStructureModel(model, schema).c_str());
  }
  if (opts.save_model_path.empty()) return Status::OK();
  const StructureModel structure = StructureModel::FromAuditModel(model, schema);
  DQ_RETURN_NOT_OK(structure.SaveToFile(opts.save_model_path));
  std::printf("persisted %zu rules to %s\n", structure.TotalRules(),
              opts.save_model_path.c_str());
  return Status::OK();
}

/// Out-of-core stage: one pass feeds a spillable segment store and a
/// reservoir sample; induction runs on the sample, detection runs segment
/// by segment (audit/stream_audit.h). The ranked report is identical for
/// every budget value.
Result<AuditRun> StreamAudit(const RunConfig& run) {
  const Options& opts = run.opts;
  StreamAuditOptions stream;
  stream.sample_rows = opts.sample_rows;
  stream.store.segment_rows = opts.segment_rows;
  stream.store.memory_budget_bytes = opts.memory_budget;
  stream.store.spill_dir =
      opts.spill_dir.empty() ? opts.data_path + ".spill" : opts.spill_dir;
  stream.csv = run.csv;
  stream.format = run.data_format;
  stream.auditor = run.auditor;
  DQ_ASSIGN_OR_RETURN(StreamAuditResult result,
                      RunStreamingAudit(run.schema, opts.data_path, stream));
  std::printf("streamed %zu records x %zu attributes from %s\n",
              result.total_rows, run.schema.num_attributes(),
              opts.data_path.c_str());
  const SegmentStore::Stats& store = result.store_stats;
  std::printf("memory budget %llu bytes: %llu segments sealed, "
              "%llu spill writes (%llu bytes), %llu spill reads, "
              "peak resident %llu bytes\n",
              static_cast<unsigned long long>(opts.memory_budget),
              static_cast<unsigned long long>(store.segments_sealed),
              static_cast<unsigned long long>(store.spill_writes),
              static_cast<unsigned long long>(store.spill_bytes_written),
              static_cast<unsigned long long>(store.spill_reads),
              static_cast<unsigned long long>(store.resident_bytes_peak));
  DQ_RETURN_NOT_OK(ReportIngest(result.ingest, opts));
  std::printf("induced on %zu sampled records (reservoir capacity %zu)\n",
              result.sampled_rows, opts.sample_rows);
  DQ_RETURN_NOT_OK(OutputModel(result.model, run.schema, opts));
  AuditRun audit;
  audit.records = result.total_rows;
  audit.report.suspicious = std::move(result.suspicious);
  return audit;
}

/// Expert-rule deviation check: deterministic violations of the
/// domain-expert dependencies, complementing the induced structure model.
Result<std::vector<std::pair<std::string, uint64_t>>> CheckExpertRules(
    const Schema& schema, const Table& data, const Options& opts) {
  if (opts.lint) {
    Linter linter(&schema);
    DQ_ASSIGN_OR_RETURN(LintResult lint_result,
                        linter.LintFileAt(opts.rules_path));
    std::fputs(RenderLintText(lint_result, opts.rules_path).c_str(), stderr);
    if (lint_result.HasErrors()) {
      return Status::InvalidArgument(
          "rule file rejected by lint; fix the errors above or rerun "
          "without --lint");
    }
  }
  DQ_ASSIGN_OR_RETURN(std::vector<Rule> expert_rules,
                      ParseRuleFileAt(schema, opts.rules_path));
  std::vector<std::pair<std::string, uint64_t>> violations;
  size_t total_violations = 0;
  for (size_t ri = 0; ri < expert_rules.size(); ++ri) {
    const Rule& rule = expert_rules[ri];
    size_t count = 0;
    size_t first = 0;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      if (rule.Violates(data.row(r))) {
        if (count == 0) first = r;
        ++count;
      }
    }
    total_violations += count;
    violations.emplace_back(rule.ToString(schema),
                            static_cast<uint64_t>(count));
    if (count > 0) {
      std::printf("expert rule %zu violated by %zu rows (first: row %zu): "
                  "%s\n",
                  ri + 1, count, first, rule.ToString(schema).c_str());
    }
  }
  std::printf("expert rules: %zu rules, %zu violating row/rule pairs\n",
              expert_rules.size(), total_violations);
  return violations;
}

/// The in-memory stages: load --data (and check --rules-file against it),
/// then either check it against a persisted model, which needs no
/// induction, or induce on --train (default: the audit data) and audit.
Result<AuditRun> AuditInMemory(const RunConfig& run) {
  const Options& opts = run.opts;
  IngestReport ingest;
  auto data = ReadTableFile(run.data_format, run.schema, opts.data_path,
                            run.csv, &ingest);
  if (!data.ok()) {
    if (!opts.ingest_report_path.empty()) {
      (void)ingest.WriteJsonFile(opts.ingest_report_path);
    }
    return data.status();
  }
  std::printf("loaded %zu records x %zu attributes from %s\n",
              data->num_rows(), run.schema.num_attributes(),
              opts.data_path.c_str());
  DQ_RETURN_NOT_OK(ReportIngest(ingest, opts));
  AuditRun audit;
  audit.records = data->num_rows();
  if (!opts.rules_path.empty()) {
    DQ_ASSIGN_OR_RETURN(audit.rule_violations,
                        CheckExpertRules(run.schema, *data, opts));
  }
  audit.data = std::move(*data);

  if (!opts.load_model_path.empty()) {
    DQ_ASSIGN_OR_RETURN(
        StructureModel model,
        StructureModel::LoadFromFile(run.schema, opts.load_model_path));
    DQ_ASSIGN_OR_RETURN(audit.report, model.Check(*audit.data, run.auditor));
    std::printf("checked against %zu persisted rules: %zu suspicious "
                "records\n",
                model.TotalRules(), audit.report.NumFlagged());
    return audit;
  }

  std::optional<Table> train;
  if (!opts.train_path.empty()) {
    IngestReport train_ingest;
    DQ_ASSIGN_OR_RETURN(train,
                        ReadTableFile(run.train_format, run.schema,
                                      opts.train_path, run.csv,
                                      &train_ingest));
    if (train_ingest.HasErrors()) {
      std::printf("ingest (train): %s\n", train_ingest.Summary().c_str());
      std::fputs(train_ingest.RenderText().c_str(), stderr);
    }
  }
  const Auditor auditor(run.auditor);
  DQ_ASSIGN_OR_RETURN(audit.model,
                      auditor.Induce(train.has_value() ? *train : *audit.data));
  DQ_RETURN_NOT_OK(OutputModel(*audit.model, run.schema, opts));
  DQ_ASSIGN_OR_RETURN(audit.report, auditor.Audit(*audit.model, *audit.data));
  return audit;
}

/// The --top listing of the ranked report.
void PrintTopSuspicions(const std::vector<Suspicion>& suspicious,
                        const Schema& schema, int top) {
  const size_t limit =
      std::min<size_t>(suspicious.size(), static_cast<size_t>(top));
  for (size_t i = 0; i < limit; ++i) {
    const Suspicion& s = suspicious[i];
    std::printf("  row %6zu  conf %.4f  %s = %s -> suggest %s (support "
                "%.0f)\n",
                s.row, s.error_confidence,
                schema.attribute(static_cast<size_t>(s.attr)).name.c_str(),
                schema.ValueToString(s.attr, s.observed).c_str(),
                schema.ValueToString(s.attr, s.suggestion).c_str(),
                s.support);
  }
}

/// --explain and --summary, which need the induced model and the table.
void PrintReview(const RunConfig& run, const AuditRun& audit) {
  const Options& opts = run.opts;
  const std::vector<Suspicion>& suspicious = audit.report.suspicious;
  for (size_t i = 0; i < static_cast<size_t>(opts.explain) &&
                     i < suspicious.size();
       ++i) {
    auto detail =
        ExplainRecord(*audit.model, *audit.data, suspicious[i].row,
                      run.auditor);
    if (detail.ok()) {
      std::printf("\n%s", RenderSuspicionDetail(*detail, *audit.model,
                                                *audit.data)
                              .c_str());
    }
  }
  if (!opts.print_summary) return;
  const AuditSummary summary = SummarizeReport(audit.report, *audit.data);
  std::printf("\n%s\n", RenderAuditSummary(summary, run.schema).c_str());
  std::printf("\ninduction time per attribute:\n");
  for (size_t attr = 0; attr < run.schema.num_attributes(); ++attr) {
    std::printf("  %-12s %8.1f ms\n", run.schema.attribute(attr).name.c_str(),
                obs::Tracer::Global().AggregateMs(
                    "induce.attr", static_cast<int64_t>(attr)));
  }
}

/// Run-history append (--history): one compact JSONL record per run for
/// dqmon's drift detection. Appended before the metrics/trace export so
/// the embedded metrics snapshot never depends on which export flags were
/// also given. Timing phases are recorded as 0 under a fixed test clock
/// (DQ_UTC_OVERRIDE_MS) so two identical runs yield byte-identical lines.
Status AppendHistory(const Options& opts, const AuditRun& audit,
                     obs::RunManifest* manifest) {
  if (opts.history_dir.empty()) return Status::OK();
  manifest->StampWallClock();
  const std::vector<Suspicion>& suspicious = audit.report.suspicious;
  obs::HistoryRecord record;
  record.manifest = *manifest;
  record.summary.records = audit.records;
  record.summary.suspicious = suspicious.size();
  record.summary.suspicion_rate =
      audit.records > 0 ? static_cast<double>(suspicious.size()) /
                              static_cast<double>(audit.records)
                        : 0.0;
  record.summary.rule_violations = audit.rule_violations;
  const size_t top_k = std::min(suspicious.size(), obs::AuditSummary::kTopK);
  for (size_t i = 0; i < top_k; ++i) {
    record.summary.top_confidences.push_back(suspicious[i].error_confidence);
  }
  for (const char* phase : {"ingest", "induce", "audit"}) {
    record.summary.timings_ms.emplace_back(
        phase, obs::EpochClockOverridden()
                   ? 0.0
                   : obs::Tracer::Global().AggregateMs(phase));
  }
  record.metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::HistoryStore store(opts.history_dir);
  DQ_RETURN_NOT_OK(store.Append(record));
  std::printf("appended history record to %s\n", store.ledger_path().c_str());
  if (opts.history_max_runs > 0) {
    size_t dropped_runs = 0;
    size_t dropped_damaged = 0;
    DQ_RETURN_NOT_OK(store.Compact(opts.history_max_runs, &dropped_runs,
                                   &dropped_damaged));
    if (dropped_runs > 0 || dropped_damaged > 0) {
      std::printf("compacted history ledger to newest %zu runs "
                  "(%zu old records, %zu damaged lines dropped)\n",
                  opts.history_max_runs, dropped_runs, dropped_damaged);
    }
  }
  return Status::OK();
}

/// --trace-out and --metrics-out.
Status ExportObservability(const Options& opts, obs::RunManifest* manifest) {
  manifest->StampWallClock();
  if (!opts.trace_out_path.empty()) {
    DQ_RETURN_NOT_OK(obs::Tracer::Global().WriteChromeTraceFile(
        opts.trace_out_path, manifest));
    std::printf("wrote trace to %s\n", opts.trace_out_path.c_str());
  }
  if (!opts.metrics_out_path.empty()) {
    obs::SyncPoolMetrics();
    DQ_RETURN_NOT_OK(obs::MetricsRegistry::Global().WriteJsonFile(
        opts.metrics_out_path, manifest));
    std::printf("wrote metrics to %s\n", opts.metrics_out_path.c_str());
  }
  return Status::OK();
}

/// The tail every mode shares. Phase timings are read from the spans the
/// run recorded, so the printed line, the history record and an exported
/// trace report one measurement.
Status FinishRun(const RunConfig& run, const AuditRun& audit,
                 obs::RunManifest* manifest) {
  const Options& opts = run.opts;
  const obs::Tracer& tracer = obs::Tracer::Global();
  const std::vector<Suspicion>& suspicious = audit.report.suspicious;
  std::printf("timings (threads=%d): ingest %.1f ms, induce %.1f ms "
              "(encode %.1f ms, tree build %.1f ms), audit %.1f ms\n",
              manifest->threads_used, tracer.AggregateMs("ingest"),
              tracer.AggregateMs("induce"),
              tracer.AggregateMs("induce.encode"),
              tracer.AggregateMs("c45.build"), tracer.AggregateMs("audit"));
  std::printf("%zu of %zu records suspicious at minimal error confidence "
              "%.2f\n",
              suspicious.size(), audit.records, opts.min_conf);
  PrintTopSuspicions(suspicious, run.schema, opts.top);
  if (audit.model.has_value()) PrintReview(run, audit);
  if (!opts.report_path.empty()) {
    DQ_RETURN_NOT_OK(WriteStreamAuditReportCsvFile(suspicious, run.schema,
                                                   opts.report_path));
    std::printf("wrote ranked report to %s\n", opts.report_path.c_str());
  }
  if (!opts.corrected_path.empty() && audit.data.has_value()) {
    DQ_ASSIGN_OR_RETURN(
        Table corrected,
        Auditor(run.auditor).ApplyCorrections(audit.report, *audit.data));
    DQ_RETURN_NOT_OK(WriteCsvFile(corrected, opts.corrected_path));
    std::printf("\nwrote corrected table to %s\n",
                opts.corrected_path.c_str());
  }
  DQ_RETURN_NOT_OK(AppendHistory(opts, audit, manifest));
  return ExportObservability(opts, manifest);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  // Recording a handful of phase spans costs nothing measurable, and every
  // phase timing the run prints or records is read back from them.
  obs::Tracer::Global().SetEnabled(true);
  obs::RunManifest manifest = MakeManifest(opts, argc, argv);

  auto run = Configure(opts);
  if (!run.ok()) return Fail(run.status());
  auto audit = opts.memory_budget > 0 ? StreamAudit(*run) : AuditInMemory(*run);
  if (!audit.ok()) return Fail(audit.status());
  const Status finished = FinishRun(*run, *audit, &manifest);
  if (!finished.ok()) return Fail(finished);
  return 0;
}
