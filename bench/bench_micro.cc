// Micro benchmarks (google-benchmark) for the library's hot paths:
// satisfiability checking, rule generation, rule-conformant record
// generation, pollution, C4.5 induction and audit-time prediction.

#include <benchmark/benchmark.h>

#include "audit/auditor.h"
#include "audit/scorer.h"
#include "eval/test_environment.h"
#include "mining/encoded_dataset.h"
#include "mining/split_kernels.h"
#include "stats/descriptive.h"
#include "obs/drift.h"
#include "obs/history.h"
#include "obs/trace.h"
#include "pollution/pipeline.h"
#include "tdg/data_generator.h"
#include "tdg/rule_generator.h"

namespace dq {
namespace {

const Schema& BaseSchema() {
  static const Schema schema = MakeBaseSchema();
  return schema;
}

std::vector<Rule> BaseRules(int n) {
  RuleGenConfig cfg;
  cfg.num_rules = n;
  cfg.seed = 11;
  RuleGenerator gen(&BaseSchema(), cfg);
  auto rules = gen.Generate();
  return rules.ok() ? *rules : std::vector<Rule>{};
}

void BM_SatisfiabilityCheck(benchmark::State& state) {
  const Schema& schema = BaseSchema();
  SatChecker sat(&schema);
  std::vector<Rule> rules = BaseRules(30);
  size_t i = 0;
  for (auto _ : state) {
    const Rule& r = rules[i++ % rules.size()];
    auto result = sat.Satisfiable(Formula::And({r.premise, r.consequent}));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SatisfiabilityCheck);

void BM_ImplicationCheck(benchmark::State& state) {
  const Schema& schema = BaseSchema();
  SatChecker sat(&schema);
  std::vector<Rule> rules = BaseRules(30);
  size_t i = 0;
  for (auto _ : state) {
    const Rule& a = rules[i % rules.size()];
    const Rule& b = rules[(i + 1) % rules.size()];
    ++i;
    auto result = sat.Implies(a.premise, b.premise);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ImplicationCheck);

void BM_RuleGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    RuleGenConfig cfg;
    cfg.num_rules = n;
    cfg.seed = ++seed;
    RuleGenerator gen(&BaseSchema(), cfg);
    auto rules = gen.Generate();
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RuleGeneration)->Arg(10)->Arg(25);

void BM_DataGeneration(benchmark::State& state) {
  const size_t records = static_cast<size_t>(state.range(0));
  const Schema& schema = BaseSchema();
  std::vector<Rule> rules = BaseRules(25);
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  DataGenerator gen(&schema, specs, nullptr, rules);
  DataGenConfig cfg;
  cfg.num_records = records;
  uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    auto data = gen.Generate(cfg);
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_DataGeneration)->Arg(1000)->Arg(5000);

void BM_Pollution(benchmark::State& state) {
  const Schema& schema = BaseSchema();
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  DataGenerator gen(&schema, specs, nullptr, {});
  DataGenConfig cfg;
  cfg.num_records = 10000;
  auto data = gen.Generate(cfg);
  if (!data.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    PollutionPipeline pipeline(DefaultPolluterMix(), ++seed);
    auto result = pipeline.Apply(data->table);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_Pollution);

void BM_C45Induction(benchmark::State& state) {
  const size_t records = static_cast<size_t>(state.range(0));
  const Schema& schema = BaseSchema();
  std::vector<Rule> rules = BaseRules(25);
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  DataGenerator gen(&schema, specs, nullptr, rules);
  DataGenConfig cfg;
  cfg.num_records = records;
  auto data = gen.Generate(cfg);
  if (!data.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  const EncodedDataset encoded = EncodedDataset::Build(data->table, 8);
  TrainingData td;
  td.encoded = &encoded;
  td.class_attr = 0;
  td.base_attrs = {1, 2, 3, 4, 5, 6, 7};
  // range(1): 0 = histogram evaluator (default), 1 = exact row sweep.
  for (auto _ : state) {
    C45Config tree_cfg;
    tree_cfg.min_error_confidence = 0.8;
    tree_cfg.split_mode =
        state.range(1) == 0 ? SplitMode::kHistogram : SplitMode::kExact;
    C45Tree tree(tree_cfg);
    auto status = tree.Train(td);
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_C45Induction)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// Entropy over small-integer class counts: the log2 cache in XLog2X turns
// every std::log2 call on the C4.5 hot path into a table load. range(0) is
// the number of count vectors per iteration.
void BM_EntropyFromCounts(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> counts(n);
  uint64_t x = 42;
  for (size_t i = 0; i < n; ++i) {
    counts[i].resize(4);
    for (double& c : counts[i]) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<double>((x >> 33) % 1000);
    }
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (const std::vector<double>& c : counts) sum += EntropyFromCounts(c);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EntropyFromCounts)->Arg(1024);

// Bin/class count accumulation kernel feeding the histogram evaluator.
void BM_CountBinClass(benchmark::State& state) {
  const size_t n = 1 << 16;
  const size_t nc = 8;
  std::vector<uint8_t> bins(n);
  std::vector<int32_t> cls(n);
  uint64_t x = 7;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    bins[i] = static_cast<uint8_t>((x >> 33) % 255);
    cls[i] = static_cast<int32_t>((x >> 17) % nc);
  }
  std::vector<uint32_t> out(255 * nc);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0u);
    kernels::CountBinClass(bins.data(), cls.data(), n, nc, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CountBinClass);

void BM_AuditPrediction(benchmark::State& state) {
  const Schema& schema = BaseSchema();
  std::vector<Rule> rules = BaseRules(25);
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  DataGenerator gen(&schema, specs, nullptr, rules);
  DataGenConfig cfg;
  cfg.num_records = 5000;
  auto data = gen.Generate(cfg);
  if (!data.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  Auditor auditor;
  auto model = auditor.Induce(data->table);
  if (!model.ok()) {
    state.SkipWithError("induction failed");
    return;
  }
  size_t row = 0;
  for (auto _ : state) {
    for (const AttributeModel& am : model->models()) {
      benchmark::DoNotOptimize(PredictRecord(am, data->table, row % 5000));
    }
    ++row;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(model->num_models()));
}
BENCHMARK(BM_AuditPrediction);

// Raw cost of one Span with recording off (Arg(0)) vs on (Arg(1)). Off is
// two clock reads — the ScopedTimer it replaced; on adds the per-thread
// buffer append.
void BM_SpanOverhead(benchmark::State& state) {
  obs::Tracer::Global().SetEnabled(state.range(0) != 0);
  double sink = 0.0;
  for (auto _ : state) {
    obs::Span span("bench.span", -1, &sink);
    benchmark::DoNotOptimize(sink);
  }
  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Reset();
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1);

// Whole induce+audit pipeline with the tracer off (Arg(0), the default
// production path) vs on (Arg(1)). CI's overhead guard compares the off
// timing against the pre-instrumentation baseline: the disabled tracer
// must stay within noise (<2%).
void BM_AuditTracer(benchmark::State& state) {
  const Schema& schema = BaseSchema();
  std::vector<Rule> rules = BaseRules(25);
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  DataGenerator gen(&schema, specs, nullptr, rules);
  DataGenConfig cfg;
  cfg.num_records = 5000;
  auto data = gen.Generate(cfg);
  if (!data.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  obs::Tracer::Global().SetEnabled(state.range(0) != 0);
  Auditor auditor;
  for (auto _ : state) {
    auto model = auditor.Induce(data->table);
    if (!model.ok()) {
      state.SkipWithError("induction failed");
      break;
    }
    auto report = auditor.Audit(*model, data->table);
    benchmark::DoNotOptimize(report);
    // Drop recorded spans between iterations so an enabled run's buffers
    // stay bounded.
    obs::Tracer::Global().Reset();
  }
  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Reset();
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_AuditTracer)->Arg(0)->Arg(1);

// One history-record serialize + parse round trip — the per-run cost a
// dqaudit --history append adds, and the per-line cost dqmon pays reading
// the ledger back.
void BM_HistoryRecordRoundTrip(benchmark::State& state) {
  obs::HistoryRecord record;
  record.manifest.tool = "dqaudit";
  record.manifest.version = "1.0.0";
  record.manifest.build_type = "Release";
  record.manifest.config_hash = "9de6aa1e283a7ce0";
  record.manifest.started_unix_ms = 1754600000000;
  record.manifest.started_utc = "2025-08-07T20:53:20.000Z";
  record.manifest.input_hashes = {{"schema", "1111111111111111"},
                                  {"data", "2222222222222222"}};
  record.summary.records = 1000000;
  record.summary.suspicious = 6000;
  record.summary.suspicion_rate = 0.006;
  for (int i = 0; i < 25; ++i) {
    record.summary.rule_violations.emplace_back(
        "rule " + std::to_string(i) + " -> conclusion", i * 3);
  }
  record.summary.top_confidences.assign(10, 0.97);
  record.summary.timings_ms = {{"ingest", 120.0}, {"induce", 800.0},
                               {"audit", 300.0}};
  for (int i = 0; i < 20; ++i) {
    record.metrics.counters.emplace_back("counter." + std::to_string(i),
                                         1ull << i);
  }
  for (auto _ : state) {
    const std::string line = record.ToJsonLine();
    obs::JsonValue json;
    bool parsed = obs::ParseJson(line, &json);
    benchmark::DoNotOptimize(parsed);
    auto back = obs::HistoryRecord::FromJson(json);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_HistoryRecordRoundTrip);

// Drift detection over a rolling baseline window — the dqmon check hot
// path (no I/O; pure comparison and ranking).
void BM_DriftCompare(benchmark::State& state) {
  auto make_record = [](uint64_t suspicious) {
    obs::HistoryRecord r;
    r.manifest.config_hash = "9de6aa1e283a7ce0";
    r.manifest.input_hashes = {{"schema", "1111111111111111"},
                               {"data", "2222222222222222"}};
    r.summary.records = 1000000;
    r.summary.suspicious = suspicious;
    r.summary.suspicion_rate = static_cast<double>(suspicious) / 1e6;
    for (int i = 0; i < 25; ++i) {
      r.summary.rule_violations.emplace_back(
          "rule " + std::to_string(i) + " -> conclusion",
          suspicious / 100 + static_cast<uint64_t>(i));
    }
    r.summary.timings_ms = {{"ingest", 120.0}, {"induce", 800.0},
                            {"audit", 300.0}};
    return r;
  };
  std::vector<obs::HistoryRecord> baseline;
  for (uint64_t i = 0; i < 5; ++i) baseline.push_back(make_record(6000 + i));
  const obs::HistoryRecord current = make_record(9000);
  for (auto _ : state) {
    obs::DriftReport report = obs::DetectDrift(baseline, current);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_DriftCompare);

}  // namespace
}  // namespace dq
