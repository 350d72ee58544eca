#include "eval/test_environment.h"

#include "obs/trace.h"
#include "table/date.h"

namespace dq {

namespace {

std::vector<std::string> MakeCategories(const std::string& prefix, int n) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(prefix + std::to_string(i));
  }
  return out;
}

}  // namespace

Schema MakeBaseSchema() {
  Schema schema;
  // Six nominal attributes with different domain sizes (sec. 6.1).
  (void)schema.AddNominal("N1", MakeCategories("a", 3));
  (void)schema.AddNominal("N2", MakeCategories("b", 5));
  (void)schema.AddNominal("N3", MakeCategories("c", 8));
  (void)schema.AddNominal("N4", MakeCategories("d", 12));
  (void)schema.AddNominal("N5", MakeCategories("e", 20));
  (void)schema.AddNominal("N6", MakeCategories("f", 40));
  (void)schema.AddDate("PROD_DATE", DaysFromCivil({1995, 1, 1}),
                       DaysFromCivil({2003, 12, 31}));
  (void)schema.AddNumeric("MEASURE", 0.0, 1000.0);
  return schema;
}

std::vector<DistributionSpec> MakeBaseDistributions(const Schema& schema,
                                                    uint64_t seed) {
  Rng rng(SplitMix64(seed) ^ 0x5eedd15fULL);
  std::vector<DistributionSpec> specs(schema.num_attributes(),
                                      DistributionSpec::Uniform());
  // The three network-covered attributes keep uniform placeholders (they
  // are ignored); the remaining five get distributions of different kinds.
  // N4: uniform (default).
  // N5: skewed categorical weights.
  {
    const size_t k = schema.attribute(4).categories.size();
    std::vector<double> weights(k);
    for (double& w : weights) w = 0.2 + rng.UniformReal(0.0, 1.0);
    weights[0] = 2.0;  // pronounced but not dominating mode
    specs[4] = DistributionSpec::Categorical(std::move(weights),
                                             /*null_prob=*/0.01);
  }
  // N6: exponential decay over the category index.
  specs[5] = DistributionSpec::Exponential(/*rate=*/2.0, /*null_prob=*/0.01);
  // PROD_DATE: normal around the centre of the production period.
  specs[6] = DistributionSpec::Normal(0.5, 0.2);
  // MEASURE: normal, slightly left of centre.
  specs[7] = DistributionSpec::Normal(0.4, 0.15, /*null_prob=*/0.02);
  return specs;
}

Result<std::unique_ptr<BayesianNetwork>> MakeBaseBayesNet(const Schema* schema,
                                                          uint64_t seed) {
  auto net = std::make_unique<BayesianNetwork>(schema);
  Rng rng(SplitMix64(seed) ^ 0xbae5ULL);
  DQ_RETURN_NOT_OK(net->AddNode(0));
  DQ_RETURN_NOT_OK(net->AddNode(1, {0}));
  DQ_RETURN_NOT_OK(net->AddNode(2, {0}));

  auto random_rows = [&rng](size_t configs, size_t categories) {
    std::vector<std::vector<double>> rows(configs,
                                          std::vector<double>(categories));
    for (auto& row : rows) {
      // Concentrated rows so the joint distribution carries structure.
      const size_t mode = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(categories) - 1));
      for (size_t c = 0; c < categories; ++c) {
        row[c] = c == mode ? 1.5 : 0.3 + rng.UniformReal(0.0, 0.7);
      }
    }
    return rows;
  };

  const size_t k1 = schema->attribute(0).categories.size();
  const size_t k2 = schema->attribute(1).categories.size();
  const size_t k3 = schema->attribute(2).categories.size();
  DQ_RETURN_NOT_OK(net->SetNominalCpt(0, random_rows(1, k1)));
  DQ_RETURN_NOT_OK(net->SetNominalCpt(1, random_rows(k1, k2)));
  DQ_RETURN_NOT_OK(net->SetNominalCpt(2, random_rows(k1, k3)));
  DQ_RETURN_NOT_OK(net->Validate());
  return net;
}

Result<ExperimentResult> TestEnvironment::Run() const {
  obs::Span pipeline_span("pipeline");
  ExperimentResult result;
  result.schema = MakeBaseSchema();

  // 1. Rule generation (fig. 2 "test data generation" inputs).
  {
    obs::Span span("tdg.rules");
    RuleGenConfig rule_cfg = config_.rule_gen;
    rule_cfg.num_rules = config_.num_rules;
    rule_cfg.seed = SplitMix64(config_.seed) ^ 0x01;
    RuleGenerator rule_gen(&result.schema, rule_cfg);
    DQ_ASSIGN_OR_RETURN(result.rules, rule_gen.Generate());
  }

  // 2. Data generation. The phase timing fields (generate_ms, pollute_ms)
  // are sinks of the phase spans, so printed timings and exported traces
  // are the same measurement.
  {
    obs::Span span("tdg.generate", -1, &result.generate_ms);
    DQ_ASSIGN_OR_RETURN(
        std::unique_ptr<BayesianNetwork> net,
        MakeBaseBayesNet(&result.schema, SplitMix64(config_.seed) ^ 0x02));
    DataGenerator data_gen(
        &result.schema,
        MakeBaseDistributions(result.schema, SplitMix64(config_.seed) ^ 0x03),
        net.get(), result.rules);
    DataGenConfig data_cfg = config_.data_gen;
    data_cfg.num_records = config_.num_records;
    data_cfg.seed = SplitMix64(config_.seed) ^ 0x04;
    DQ_ASSIGN_OR_RETURN(GeneratedData generated, data_gen.Generate(data_cfg));
    result.clean = std::move(generated.table);
  }

  // 3. Controlled corruption.
  {
    obs::Span span("pollute", -1, &result.pollute_ms);
    std::vector<PolluterConfig> polluters =
        config_.polluters.empty() ? DefaultPolluterMix() : config_.polluters;
    PollutionPipeline pipeline(polluters, SplitMix64(config_.seed) ^ 0x05,
                               config_.pollution_factor);
    DQ_ASSIGN_OR_RETURN(result.pollution, pipeline.Apply(result.clean));
  }

  // 4. Structure induction + deviation detection on the dirty table (the
  // single-database regime of sec. 8). The auditor opens the "induce" /
  // "audit" spans itself; the phase fields sink the spans around them.
  Auditor auditor(config_.auditor);
  AuditModel model;
  {
    obs::Span span("experiment.induce", -1, &result.induce_ms);
    DQ_ASSIGN_OR_RETURN(model, auditor.Induce(result.pollution.dirty));
  }
  {
    obs::Span span("experiment.audit", -1, &result.audit_ms);
    DQ_ASSIGN_OR_RETURN(result.report,
                        auditor.Audit(model, result.pollution.dirty));
  }

  // 5. Evaluation (sec. 4.3).
  {
    obs::Span span("evaluate");
    result.detection = EvaluateDetection(result.pollution, result.report);
    DQ_ASSIGN_OR_RETURN(
        Table corrected,
        auditor.ApplyCorrections(result.report, result.pollution.dirty));
    result.correction = EvaluateCorrection(result.clean, result.pollution,
                                           result.report, corrected);
  }
  result.sensitivity = result.detection.Sensitivity();
  result.specificity = result.detection.Specificity();
  result.correction_improvement = result.correction.Improvement();
  result.flagged = result.report.NumFlagged();
  result.corrupted = result.pollution.CorruptedCount();
  return result;
}

}  // namespace dq
