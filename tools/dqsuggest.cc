// dqsuggest — mined-rule static analysis: turns induced models into
// candidate TDG-rules, lints them, reconciles them against an expert rule
// program and reduces the survivors to a greedy confidence-ranked minimal
// cover. Every dropped candidate is justified by a DQ03x diagnostic.
//
// Usage:
//   dqsuggest --schema spec.txt --data table.csv [options]
//
// Options:
//   --schema FILE       schema specification (see table/schema_spec.h)
//   --data FILE         CSV training data (header row required)
//   --source KIND       candidate sources: c45 | assoc | both (default both)
//   --expert-rules FILE expert TDG-rule program; candidates contradicting it
//                       are dropped with DQ033, candidates it already
//                       implies with DQ040
//   --min-confidence X  confidence floor, DQ037 below (default 0.85)
//   --min-support N     premise+consequent support-count floor, DQ035 below
//                       (default 2)
//   --max-rules N       cap on accepted rules, DQ039 beyond (0 = unlimited)
//   --emit FILE         write the accepted cover as an annotated rule file
//                       that dqlint, dqaudit --rules-file and dqgen accept
//                       unchanged
//   --format MODE       text (default) or json
//   --assoc-min-support X     absolute itemset-support floor for the
//                             association miner (default 50)
//   --assoc-min-confidence X  confidence floor for the association miner
//                             (default 0.9)
//   --threads N         worker threads for induction (default 0 = hardware
//                       concurrency; any non-positive value means the
//                       hardware default; results are identical for every
//                       count)
//   --on-error MODE     fail (default) or skip malformed CSV records
//   --trace-out FILE    write the span tree as Chrome trace-event JSON
//   --metrics-out FILE  write the metrics registry snapshot as JSON
//   --log-level LEVEL   debug | info | warn | error | off (default info)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/rule_export.h"
#include "common/atomic_file.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "lint/suggest.h"
#include "logic/rule_parser.h"
#include "mining/assoc_rules.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/schema_spec.h"
#include "flag_parse.h"

using namespace dq;

namespace {

struct Options {
  std::string schema_path;
  std::string data_path;
  std::string expert_path;
  std::string emit_path;
  std::string source = "both";
  std::string format = "text";
  std::string on_error = "fail";
  std::string trace_out_path;
  std::string metrics_out_path;
  double min_confidence = 0.85;
  size_t min_support = 2;
  size_t max_rules = 0;
  double assoc_min_support = 50.0;
  double assoc_min_confidence = 0.9;
  int threads = 0;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dqsuggest --schema spec.txt --data table.csv\n"
               "  [--source c45|assoc|both] [--expert-rules r.rules]\n"
               "  [--min-confidence 0.85] [--min-support 2] [--max-rules 0]\n"
               "  [--emit suggested.rules] [--format text|json]\n"
               "  [--assoc-min-support 50] [--assoc-min-confidence 0.9]\n"
               "  [--threads 0] [--on-error fail|skip]\n"
               "  [--trace-out trace.json] [--metrics-out metrics.json]\n"
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
    if (arg == "--expert-rules" && need_value(&opts->expert_path)) continue;
    if (arg == "--emit" && need_value(&opts->emit_path)) continue;
    if (arg == "--source" && need_value(&opts->source)) continue;
    if (arg == "--format" && need_value(&opts->format)) continue;
    if (arg == "--on-error" && need_value(&opts->on_error)) continue;
    if (arg == "--trace-out" && need_value(&opts->trace_out_path)) continue;
    if (arg == "--metrics-out" && need_value(&opts->metrics_out_path)) {
      continue;
    }
    if (arg == "--log-level" && need_value(&value)) {
      if (!ParseLogLevelFlag(arg, value)) return false;
      continue;
    }
    if (arg == "--min-confidence" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1.0, &opts->min_confidence)) {
        return false;
      }
      continue;
    }
    if (arg == "--min-support" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 0,
                         std::numeric_limits<int64_t>::max(),
                         &opts->min_support)) {
        return false;
      }
      continue;
    }
    if (arg == "--max-rules" && need_value(&value)) {
      if (!ParseSizeFlag(arg, value, 0,
                         std::numeric_limits<int64_t>::max(),
                         &opts->max_rules)) {
        return false;
      }
      continue;
    }
    if (arg == "--assoc-min-support" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1.0,
                           &opts->assoc_min_support)) {
        return false;
      }
      continue;
    }
    if (arg == "--assoc-min-confidence" && need_value(&value)) {
      if (!ParseDoubleFlag(arg, value, 0.0, 1.0,
                           &opts->assoc_min_confidence)) {
        return false;
      }
      continue;
    }
    if (arg == "--threads" && need_value(&value)) {
      // Non-positive values mean the hardware default (ResolveThreadCount).
      if (!ParseIntFlag32(arg, value, std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max(), &opts->threads)) {
        return false;
      }
      continue;
    }
    std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
    return false;
  }
  if (opts->schema_path.empty() || opts->data_path.empty()) return false;
  if (opts->source != "c45" && opts->source != "assoc" &&
      opts->source != "both") {
    std::fprintf(stderr, "--source must be c45, assoc or both\n");
    return false;
  }
  if (opts->format != "text" && opts->format != "json") {
    std::fprintf(stderr, "--format must be text or json\n");
    return false;
  }
  if (opts->on_error != "fail" && opts->on_error != "skip") {
    std::fprintf(stderr, "--on-error must be 'fail' or 'skip'\n");
    return false;
  }
  return true;
}

int Fail(const Status& status) {
  DQ_LOG_ERROR("dqsuggest", "%s", status.ToString().c_str());
  return 1;
}

std::string RenderSuggestJson(const Options& opts, const SuggestResult& result,
                              const Schema& schema) {
  std::string out = "{\n";
  out += "  \"tool\": \"dqsuggest\",\n";
  out += "  \"data\": \"" + obs::JsonEscape(opts.data_path) + "\",\n";
  out += "  \"num_candidates\": " + std::to_string(result.num_candidates) +
         ",\n";
  out += "  \"num_accepted\": " + std::to_string(result.accepted.size()) +
         ",\n";
  out += "  \"num_filtered\": " + std::to_string(result.num_filtered) + ",\n";
  out += "  \"num_invalid\": " + std::to_string(result.num_invalid) + ",\n";
  out += "  \"num_conflicts\": " + std::to_string(result.num_conflicts) +
         ",\n";
  out += "  \"num_subsumed\": " + std::to_string(result.num_subsumed) + ",\n";
  out += "  \"num_truncated\": " + std::to_string(result.num_truncated) +
         ",\n";
  out += "  \"accepted\": [\n";
  for (size_t i = 0; i < result.accepted.size(); ++i) {
    const CandidateRule& c = result.accepted[i];
    out += "    {\"rule\": \"" +
           obs::JsonEscape(RenderRuleSource(c.rule, schema)) +
           "\", \"confidence\": " + FormatDouble(c.confidence, 6) +
           ", \"support_count\": " + std::to_string(c.support_count) +
           ", \"coverage\": " + FormatDouble(c.coverage, 6) +
           ", \"source\": \"" + obs::JsonEscape(c.source) + "\"}";
    out += i + 1 < result.accepted.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"diagnostics\": " +
         RenderLintJson(result.diagnostics, "<candidates>") + "\n";
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  obs::Tracer::Global().SetEnabled(true);

  obs::RunManifest manifest = obs::MakeRunManifest("dqsuggest", argc, argv);
  manifest.threads_requested = opts.threads;
  manifest.threads_used = ResolveThreadCount(opts.threads);
  (void)obs::AddInputFileHash(&manifest, "schema", opts.schema_path);
  (void)obs::AddInputFileHash(&manifest, "data", opts.data_path);
  if (!opts.expert_path.empty()) {
    (void)obs::AddInputFileHash(&manifest, "expert-rules", opts.expert_path);
  }

  auto schema = ParseSchemaSpecFile(opts.schema_path);
  if (!schema.ok()) return Fail(schema.status());
  CsvOptions csv_options;
  csv_options.on_error = opts.on_error == "skip"
                             ? CsvErrorPolicy::kSkipAndReport
                             : CsvErrorPolicy::kFail;
  csv_options.num_threads = opts.threads;
  IngestReport ingest;
  auto data = ReadCsvFile(*schema, opts.data_path, csv_options, &ingest);
  if (!data.ok()) return Fail(data.status());
  if (ingest.HasErrors()) {
    std::fputs(ingest.RenderText().c_str(), stderr);
  }
  std::fprintf(stderr, "loaded %zu records x %zu attributes from %s\n",
               data->num_rows(), schema->num_attributes(),
               opts.data_path.c_str());
  const double total_rows = static_cast<double>(data->num_rows());

  // Candidate extraction: C4.5 path rules and/or association rules.
  std::vector<CandidateRule> candidates;
  if (opts.source == "c45" || opts.source == "both") {
    obs::Span span("suggest.extract_c45");
    AuditorConfig config;
    config.inducer = InducerKind::kC45;
    config.num_threads = opts.threads;
    Auditor auditor(config);
    auto model = auditor.Induce(*data);
    if (!model.ok()) return Fail(model.status());
    std::vector<CandidateRule> extracted =
        ExtractCandidateRules(*model, *schema, config, total_rows);
    std::fprintf(stderr, "c45: %zu convertible path rules\n",
                 extracted.size());
    for (CandidateRule& c : extracted) candidates.push_back(std::move(c));
  }
  if (opts.source == "assoc" || opts.source == "both") {
    obs::Span span("suggest.extract_assoc");
    AssocMinerConfig config;
    config.min_support = opts.assoc_min_support;
    config.min_confidence = opts.assoc_min_confidence;
    AssociationRuleAuditor miner(config);
    Status mined = miner.Mine(*data);
    if (!mined.ok()) return Fail(mined);
    std::vector<CandidateRule> extracted =
        AssociationCandidates(miner.rules(), *schema, total_rows);
    std::fprintf(stderr, "assoc: %zu mined rules\n", extracted.size());
    for (CandidateRule& c : extracted) candidates.push_back(std::move(c));
  }

  // Expert rule program (lenient parse; malformed lines become DQ001-level
  // parse errors of *that* file and abort — a broken expert file must not
  // silently weaken the conflict check).
  std::vector<ParsedRule> expert;
  if (!opts.expert_path.empty()) {
    auto parse = ParseRuleFileLenientAt(*schema, opts.expert_path);
    if (!parse.ok()) return Fail(parse.status());
    if (!parse->errors.empty()) {
      for (const ParseError& e : parse->errors) {
        std::fprintf(stderr, "%s: %s\n", opts.expert_path.c_str(),
                     e.Render().c_str());
      }
      return Fail(Status::InvalidArgument(
          "expert rule file has " + std::to_string(parse->errors.size()) +
          " parse error(s)"));
    }
    expert = std::move(parse->rules);
    std::fprintf(stderr, "expert: %zu rules from %s\n", expert.size(),
                 opts.expert_path.c_str());
  }

  SuggestOptions suggest_options;
  suggest_options.min_confidence = opts.min_confidence;
  suggest_options.min_support_count = opts.min_support;
  suggest_options.max_rules = opts.max_rules;
  SuggestEngine engine(&*schema, suggest_options);
  const SuggestResult result = engine.Analyze(candidates, expert);

  if (opts.format == "json") {
    std::fputs(RenderSuggestJson(opts, result, *schema).c_str(), stdout);
  } else {
    std::fputs(RenderLintText(result.diagnostics, "<candidates>").c_str(),
               stderr);
    std::printf("dqsuggest: %zu candidates -> %zu accepted "
                "(%zu filtered, %zu invalid, %zu conflicts, %zu subsumed, "
                "%zu truncated)\n",
                result.num_candidates, result.accepted.size(),
                result.num_filtered, result.num_invalid, result.num_conflicts,
                result.num_subsumed, result.num_truncated);
    for (const CandidateRule& c : result.accepted) {
      std::printf("  [conf %s, support %zu] %s\n",
                  FormatDouble(c.confidence, 3).c_str(), c.support_count,
                  RenderRuleSource(c.rule, *schema).c_str());
    }
  }

  if (!opts.emit_path.empty()) {
    const std::string header =
        "suggested rules mined from " + opts.data_path +
        (opts.expert_path.empty() ? std::string()
                                  : " (reconciled against " +
                                        opts.expert_path + ")");
    Status emitted = WriteFileAtomically(
        opts.emit_path,
        RenderSuggestedRuleFile(result.accepted, *schema, header));
    if (!emitted.ok()) return Fail(emitted);
    std::fprintf(stderr, "emitted %zu rules to %s\n", result.accepted.size(),
                 opts.emit_path.c_str());
  }

  manifest.StampWallClock();
  if (!opts.trace_out_path.empty()) {
    Status traced = obs::Tracer::Global().WriteChromeTraceFile(
        opts.trace_out_path, &manifest);
    if (!traced.ok()) return Fail(traced);
  }
  if (!opts.metrics_out_path.empty()) {
    obs::SyncPoolMetrics();
    Status dumped = obs::MetricsRegistry::Global().WriteJsonFile(
        opts.metrics_out_path, &manifest);
    if (!dumped.ok()) return Fail(dumped);
  }
  return 0;
}
