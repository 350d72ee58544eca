// dqgen — standalone benchmark-database generator (the test data generator
// of sec. 4 as a command-line tool).
//
// Usage:
//   dqgen --schema spec.txt --records 10000 --clean clean.csv [options]
//
// Options:
//   --schema FILE     schema specification (see table/schema_spec.h)
//   --records N       number of records to generate
//   --rules K         number of random natural rules (default 25)
//   --rules-file FILE use expert-written rules instead of random ones
//                     (one "premise -> consequent" per line, # comments)
//   --seed S          random seed (default 1)
//   --clean FILE      write the clean database
//   --dirty FILE      additionally pollute and write the dirty database
//   --format FMT      on-disk format of --clean/--dirty: csv or dqcol
//                     (default: infer from each path's extension — '.dqcol'
//                     means dqcol, anything else CSV). dqcol is the binary
//                     columnar format (docs/FORMATS.md); auditing a dqcol
//                     file yields a byte-identical report to its CSV twin.
//                     dqcol is write-once whole-table, so it is
//                     incompatible with --chunk-rows streaming
//   --factor F        pollution factor (default 1.0)
//   --log FILE        write the corruption log
//   --truth FILE      write per-dirty-row ground truth (row,corrupted,origin)
//   --quis            generate the synthetic QUIS engine-composition sample
//                     (sec. 6.2 surrogate) instead of a rule-driven
//                     database; --schema/--rules are ignored, the 8
//                     attributes come from MakeQuisSchema
//   --chunk-rows N    stream the QUIS sample to --clean N records at a
//                     time instead of building it in memory first — the
//                     multi-GB path for out-of-core audit experiments. The
//                     file is bitwise identical to the one-shot --quis
//                     output. Requires --quis; incompatible with --dirty,
//                     --truth, --log and --verify-roundtrip (they need the
//                     whole table in RAM)
//   --print-rules     print the generated rule set
//   --lint            run the dqlint check battery over the rule set before
//                     generating; lint errors abort with exit code 1
//   --verify-roundtrip  re-read every written file with the strict reader
//                     for its format and assert it is bitwise-identical to
//                     the in-memory table (guards the writer/reader pair)
//   --ingest-report F write the verification reader's ingest report as JSON
//   --trace-out FILE  write the span tree of the run as Chrome trace-event
//                     JSON (load in Perfetto / chrome://tracing)
//   --metrics-out FILE write the metrics registry snapshot as JSON
//   --log-level LEVEL debug | info | warn | error | off (default info)

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include "flag_parse.h"

#include "common/atomic_file.h"
#include "lint/lint.h"
#include "logic/natural.h"
#include "logic/rule_parser.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pollution/pipeline.h"
#include "quis/quis_sample.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/schema_spec.h"
#include "tdg/data_generator.h"
#include "tdg/rule_generator.h"

using namespace dq;

namespace {

struct Options {
  std::string schema_path;
  std::string rules_path;
  std::string clean_path;
  std::string dirty_path;
  std::string log_path;
  std::string truth_path;
  size_t records = 0;
  int rules = 25;
  uint64_t seed = 1;
  double factor = 1.0;
  size_t chunk_rows = 0;  ///< 0 = one-shot generation
  std::string format;     ///< "", "csv" or "dqcol"; "" = infer per path
  bool quis = false;
  bool print_rules = false;
  bool lint = false;
  bool verify_roundtrip = false;
  std::string ingest_report_path;
  std::string trace_out_path;
  std::string metrics_out_path;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dqgen --schema spec.txt --records N --clean out.csv\n"
               "  [--quis] [--chunk-rows N] [--rules 25] [--seed 1]\n"
               "  [--dirty out.csv] [--format csv|dqcol] [--factor 1.0]\n"
               "  [--log corruption.log] [--truth truth.csv] [--print-rules]\n"
               "  [--rules-file rules.txt] [--lint] [--verify-roundtrip]\n"
               "  [--ingest-report report.json] [--trace-out trace.json]\n"
               "  [--metrics-out metrics.json]\n"
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
    if (arg == "--rules-file" && need_value(&opts->rules_path)) continue;
    if (arg == "--clean" && need_value(&opts->clean_path)) continue;
    if (arg == "--dirty" && need_value(&opts->dirty_path)) continue;
    if (arg == "--log" && need_value(&opts->log_path)) continue;
    if (arg == "--truth" && need_value(&opts->truth_path)) continue;
    if (arg == "--records" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 1,
                         std::numeric_limits<int64_t>::max(),
                         &opts->records)) {
        return false;
      }
      continue;
    }
    if (arg == "--rules" && need_value(&value)) {
      if (!ParseIntFlag32(arg, value, 0, std::numeric_limits<int>::max(),
                          &opts->rules)) {
        return false;
      }
      continue;
    }
    if (arg == "--seed" && need_value(&value)) {
      int64_t seed = 0;
      if (!ParseIntFlag(arg, value, std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max(), &seed)) {
        return false;
      }
      opts->seed = static_cast<uint64_t>(seed);
      continue;
    }
    if (arg == "--factor" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1e6, &opts->factor)) {
        return false;
      }
      continue;
    }
    if (arg == "--chunk-rows" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 1,
                         std::numeric_limits<int64_t>::max(),
                         &opts->chunk_rows)) {
        return false;
      }
      continue;
    }
    if (arg == "--format" && need_value(&opts->format)) continue;
    if (arg == "--quis") {
      opts->quis = true;
      continue;
    }
    if (arg == "--print-rules") {
      opts->print_rules = true;
      continue;
    }
    if (arg == "--lint") {
      opts->lint = true;
      continue;
    }
    if (arg == "--verify-roundtrip") {
      opts->verify_roundtrip = true;
      continue;
    }
    if (arg == "--ingest-report" && need_value(&opts->ingest_report_path)) {
      continue;
    }
    if (arg == "--trace-out" && need_value(&opts->trace_out_path)) continue;
    if (arg == "--metrics-out" && need_value(&opts->metrics_out_path)) {
      continue;
    }
    if (arg == "--log-level" && need_value(&value)) {
      if (!ParseLogLevelFlag(arg, value)) return false;
      continue;
    }
    std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
    return false;
  }
  if (!opts->format.empty() && opts->format != "csv" &&
      opts->format != "dqcol") {
    std::fprintf(stderr, "--format must be 'csv' or 'dqcol'\n");
    return false;
  }
  if (opts->chunk_rows > 0) {
    if (!opts->quis) {
      std::fprintf(stderr, "--chunk-rows requires --quis\n");
      return false;
    }
    if (!opts->dirty_path.empty() || !opts->truth_path.empty() ||
        !opts->log_path.empty() || opts->verify_roundtrip) {
      std::fprintf(stderr,
                   "--chunk-rows is incompatible with --dirty, --truth, "
                   "--log and --verify-roundtrip\n");
      return false;
    }
    if (opts->format == "dqcol" ||
        (opts->format.empty() &&
         InferIngestFormat(opts->clean_path) == IngestFormat::kDqcol)) {
      std::fprintf(stderr,
                   "--chunk-rows streams CSV; dqcol is a write-once "
                   "whole-table format (generate CSV, then dqconvert)\n");
      return false;
    }
  }
  return (opts->quis || !opts->schema_path.empty()) && opts->records > 0 &&
         !opts->clean_path.empty();
}

int Fail(const Status& status) {
  DQ_LOG_ERROR("dqgen", "%s", status.ToString().c_str());
  return 1;
}

/// Re-reads `path` with the strict reader for its format and checks it
/// decodes bitwise-identically to the table that was just written there.
Status VerifyRoundTrip(const Schema& schema, const Table& original,
                       IngestFormat format, const std::string& path,
                       IngestReport* report) {
  auto back = ReadTableFile(format, schema, path, CsvOptions(), report);
  if (!back.ok()) return back.status();
  if (back->num_rows() != original.num_rows()) {
    return Status::Internal("round-trip of " + path + " read back " +
                            std::to_string(back->num_rows()) + " of " +
                            std::to_string(original.num_rows()) + " records");
  }
  for (size_t r = 0; r < original.num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (!back->cell(r, a).StrictEquals(original.cell(r, a))) {
        return Status::Internal(
            "round-trip of " + path + " differs at row " + std::to_string(r) +
            ", attribute '" + schema.attribute(a).name + "'");
      }
    }
  }
  std::printf("round-trip verified: %s (%zu records bitwise-identical)\n",
              path.c_str(), original.num_rows());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  obs::Tracer::Global().SetEnabled(true);

  obs::RunManifest manifest = obs::MakeRunManifest("dqgen", argc, argv);
  manifest.seed = opts.seed;
  (void)obs::AddInputFileHash(&manifest, "schema", opts.schema_path);
  if (!opts.rules_path.empty()) {
    (void)obs::AddInputFileHash(&manifest, "rules", opts.rules_path);
  }

  // --format pins both outputs; otherwise each path's extension decides.
  IngestFormat clean_format = InferIngestFormat(opts.clean_path);
  IngestFormat dirty_format = InferIngestFormat(opts.dirty_path);
  if (!opts.format.empty()) {
    auto parsed_format = IngestFormatFromName(opts.format);
    if (!parsed_format.ok()) return Fail(parsed_format.status());
    clean_format = *parsed_format;
    dirty_format = *parsed_format;
  }

  Schema schema;
  if (opts.quis) {
    schema = MakeQuisSchema();
  } else {
    auto parsed_schema = ParseSchemaSpecFile(opts.schema_path);
    if (!parsed_schema.ok()) return Fail(parsed_schema.status());
    schema = std::move(*parsed_schema);
  }

  IngestReport verify_report;
  auto finish = [&]() -> int {
    if (!opts.ingest_report_path.empty()) {
      Status dumped = verify_report.WriteJsonFile(opts.ingest_report_path);
      if (!dumped.ok()) return Fail(dumped);
      std::printf("wrote ingest report to %s\n",
                  opts.ingest_report_path.c_str());
    }
    manifest.StampWallClock();
    if (!opts.trace_out_path.empty()) {
      Status traced = obs::Tracer::Global().WriteChromeTraceFile(
          opts.trace_out_path, &manifest);
      if (!traced.ok()) return Fail(traced);
      std::printf("wrote trace to %s\n", opts.trace_out_path.c_str());
    }
    if (!opts.metrics_out_path.empty()) {
      obs::SyncPoolMetrics();
      Status dumped = obs::MetricsRegistry::Global().WriteJsonFile(
          opts.metrics_out_path, &manifest);
      if (!dumped.ok()) return Fail(dumped);
      std::printf("wrote metrics to %s\n", opts.metrics_out_path.c_str());
    }
    return 0;
  };

  std::vector<Rule> rules;
  Table clean;
  if (opts.quis && opts.chunk_rows > 0) {
    // Streaming QUIS synthesis: one RNG stream, chunk_rows records per
    // chunk, header written once — the file is bitwise identical to the
    // one-shot path, but peak memory is one chunk instead of the dataset.
    QuisConfig qcfg;
    qcfg.num_records = opts.records;
    qcfg.seed = opts.seed;
    auto gen = QuisStreamGenerator::Create(qcfg);
    if (!gen.ok()) return Fail(gen.status());
    obs::Span span("quis.generate");
    size_t written_rows = 0;
    Status written =
        WriteFileAtomically(opts.clean_path, [&](std::ostream* out) {
          CsvOptions write_options;
          Table chunk;
          while (!gen->done()) {
            DQ_RETURN_NOT_OK(gen->NextChunk(opts.chunk_rows, &chunk));
            write_options.write_header = written_rows == 0;
            DQ_RETURN_NOT_OK(WriteCsv(chunk, out, write_options));
            written_rows += chunk.num_rows();
          }
          return Status::OK();
        });
    if (!written.ok()) return Fail(written);
    obs::GetCounter("tdg.records_generated")->Add(written_rows);
    std::printf("generated %zu QUIS engine-composition records in chunks of "
                "%zu (planted deviation at row %zu) -> %s\n",
                written_rows, opts.chunk_rows, gen->planted_deviation_row(),
                opts.clean_path.c_str());
    return finish();
  }
  if (opts.quis) {
    QuisConfig qcfg;
    qcfg.num_records = opts.records;
    qcfg.seed = opts.seed;
    auto sample = [&] {
      obs::Span span("quis.generate");
      return GenerateQuisSample(qcfg);
    }();
    if (!sample.ok()) return Fail(sample.status());
    clean = std::move(sample->table);
    obs::GetCounter("tdg.records_generated")->Add(clean.num_rows());
    Status written =
        WriteTableFile(clean, clean_format, opts.clean_path, CsvOptions());
    if (!written.ok()) return Fail(written);
    std::printf("generated %zu QUIS engine-composition records (planted "
                "deviation at row %zu) -> %s\n",
                clean.num_rows(), sample->planted_deviation_row,
                opts.clean_path.c_str());
  } else if (!opts.rules_path.empty()) {
    // The lint pre-pass rejects malformed rule files with actionable,
    // position-annotated diagnostics instead of silently generating
    // garbage data.
    if (opts.lint) {
      Linter linter(&schema);
      auto lint_result = linter.LintFileAt(opts.rules_path);
      if (!lint_result.ok()) return Fail(lint_result.status());
      std::fputs(RenderLintText(*lint_result, opts.rules_path).c_str(),
                 stderr);
      if (lint_result->HasErrors()) {
        DQ_LOG_ERROR("dqgen",
                     "rule file rejected by lint; fix the errors above or "
                     "rerun without --lint");
        return 1;
      }
    }
    auto parsed = ParseRuleFileAt(schema, opts.rules_path);
    if (!parsed.ok()) return Fail(parsed.status());
    rules = std::move(*parsed);
    // Expert-written rules are advisory-checked against the naturalness
    // conditions; contradictions would make generation impossible.
    NaturalnessChecker checker(&schema);
    auto natural = checker.IsNaturalRuleSet(rules);
    if (natural.ok() && !*natural) {
      DQ_LOG_WARN("dqgen",
                  "the rule set violates the naturalness conditions "
                  "(Definitions 4-6); generation may leave unresolved "
                  "records");
    }
  } else {
    RuleGenConfig rcfg;
    rcfg.num_rules = opts.rules;
    rcfg.seed = opts.seed;
    RuleGenerator rule_gen(&schema, rcfg);
    auto generated = [&] {
      obs::Span span("tdg.rules");
      return rule_gen.Generate();
    }();
    if (!generated.ok()) return Fail(generated.status());
    rules = std::move(*generated);
    if (opts.lint) {
      Linter linter(&schema);
      const LintResult lint_result = linter.LintRules(rules);
      std::fputs(RenderLintText(lint_result, "<generated>").c_str(), stderr);
      if (lint_result.HasErrors()) {
        DQ_LOG_ERROR("dqgen", "generated rule set failed lint");
        return 1;
      }
    }
  }
  if (opts.print_rules) {
    for (const Rule& r : rules) {
      std::printf("rule: %s\n", r.ToString(schema).c_str());
    }
  }

  if (!opts.quis) {
    std::vector<DistributionSpec> specs(schema.num_attributes(),
                                        DistributionSpec::Uniform());
    DataGenerator data_gen(&schema, specs, nullptr, rules);
    DataGenConfig dcfg;
    dcfg.num_records = opts.records;
    dcfg.seed = opts.seed ^ 0x9e3779b9ULL;
    auto data = [&] {
      obs::Span span("tdg.generate");
      return data_gen.Generate(dcfg);
    }();
    if (!data.ok()) return Fail(data.status());
    clean = std::move(data->table);
    obs::GetCounter("tdg.records_generated")->Add(clean.num_rows());
    Status written =
        WriteTableFile(clean, clean_format, opts.clean_path, CsvOptions());
    if (!written.ok()) return Fail(written);
    std::printf("generated %zu records following %zu rules -> %s",
                clean.num_rows(), rules.size(), opts.clean_path.c_str());
    // Records kept after repair gave up still break a rule; say how many.
    const size_t unresolved = data->unresolved_records;
    if (unresolved > 0) {
      std::printf(" (%zu record%s still violate%s a rule)", unresolved,
                  unresolved == 1 ? "" : "s", unresolved == 1 ? "s" : "");
    }
    std::printf("\n");
  }

  if (opts.verify_roundtrip) {
    Status verified = VerifyRoundTrip(schema, clean, clean_format,
                                      opts.clean_path, &verify_report);
    if (!verified.ok()) return Fail(verified);
  }

  if (opts.dirty_path.empty()) return finish();

  PollutionPipeline pipeline(DefaultPolluterMix(), opts.seed ^ 0x51ULL,
                             opts.factor);
  auto polluted = [&] {
    obs::Span span("pollute");
    return pipeline.Apply(clean);
  }();
  if (!polluted.ok()) return Fail(polluted.status());
  obs::GetCounter("pollute.records_corrupted")->Add(polluted->CorruptedCount());
  Status written = WriteTableFile(polluted->dirty, dirty_format,
                                  opts.dirty_path, CsvOptions());
  if (!written.ok()) return Fail(written);
  std::printf("polluted %zu of %zu records (factor %.2f) -> %s\n",
              polluted->CorruptedCount(), polluted->dirty.num_rows(),
              opts.factor, opts.dirty_path.c_str());
  if (opts.verify_roundtrip) {
    Status verified = VerifyRoundTrip(schema, polluted->dirty, dirty_format,
                                      opts.dirty_path, &verify_report);
    if (!verified.ok()) return Fail(verified);
  }

  if (!opts.log_path.empty()) {
    Status logged = WriteFileAtomically(opts.log_path, [&](std::ostream* log) {
      for (const CorruptionEvent& ev : polluted->log) {
        *log << ev.ToString(schema) << '\n';
      }
      return Status::OK();
    });
    if (!logged.ok()) return Fail(logged);
  }
  if (!opts.truth_path.empty()) {
    Status truth_written =
        WriteFileAtomically(opts.truth_path, [&](std::ostream* truth) {
          *truth << "row,corrupted,origin\n";
          for (size_t r = 0; r < polluted->dirty.num_rows(); ++r) {
            *truth << r << ',' << (polluted->is_corrupted[r] ? 1 : 0) << ','
                   << polluted->origin[r] << '\n';
          }
          return Status::OK();
        });
    if (!truth_written.ok()) return Fail(truth_written);
  }
  return finish();
}
