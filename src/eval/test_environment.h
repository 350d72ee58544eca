// TestEnvironment: the end-to-end benchmarking pipeline of fig. 2.
//
// "It generates artificial data that simulate structural characteristics of
// the application database, pollutes this data in a controlled and logged
// procedure, runs the data auditing tool and evaluates its performance by
// comparing the deviations of the dirty from the clean database with the
// detected errors."
//
// The base parameter configuration mirrors sec. 6.1: "6 nominal attributes
// with different domain sizes, 1 date type and 1 numeric attribute.
// Furthermore, we specify one multivariate nominal and 5 univariate start
// distributions of different kinds. We use the test data generator to
// create 10000 records based on 100 randomly generated rules and apply a
// variety of pollution procedures with different activation probabilities"
// at a fixed minimal error confidence of 80%.

#ifndef DQ_EVAL_TEST_ENVIRONMENT_H_
#define DQ_EVAL_TEST_ENVIRONMENT_H_

#include <memory>

#include "audit/auditor.h"
#include "bayes/bayes_net.h"
#include "eval/metrics.h"
#include "pollution/pipeline.h"
#include "tdg/data_generator.h"
#include "tdg/rule_generator.h"

namespace dq {

/// \brief The sec. 6.1 base schema: six nominal attributes with domain
/// sizes 3/5/8/12/20/40, one date attribute (production date 1995-2003) and
/// one numeric attribute.
Schema MakeBaseSchema();

/// \brief Five univariate start distributions of different kinds for the
/// attributes not covered by the multivariate network.
std::vector<DistributionSpec> MakeBaseDistributions(const Schema& schema,
                                                    uint64_t seed);

/// \brief The multivariate nominal start distribution: a Bayesian network
/// over the first three nominal attributes (N2 and N3 depend on N1) with
/// deterministic pseudo-random CPTs.
Result<std::unique_ptr<BayesianNetwork>> MakeBaseBayesNet(const Schema* schema,
                                                          uint64_t seed);

struct TestEnvironmentConfig {
  size_t num_records = 10000;
  int num_rules = 100;
  double pollution_factor = 1.0;
  uint64_t seed = 1;

  RuleGenConfig rule_gen;  ///< num_rules/seed overridden from above
  DataGenConfig data_gen;  ///< num_records/seed overridden from above
  std::vector<PolluterConfig> polluters;  ///< empty = DefaultPolluterMix()
  AuditorConfig auditor;   ///< minimal error confidence defaults to 0.8
};

/// \brief Everything a benchmark needs from one pipeline run.
struct ExperimentResult {
  Schema schema;
  std::vector<Rule> rules;
  Table clean;
  PollutionResult pollution;
  AuditReport report;
  DetectionMatrix detection;
  CorrectionMatrix correction;

  double sensitivity = 0.0;
  double specificity = 0.0;
  double correction_improvement = 0.0;
  size_t flagged = 0;
  size_t corrupted = 0;

  double generate_ms = 0.0;
  double pollute_ms = 0.0;
  double induce_ms = 0.0;
  double audit_ms = 0.0;
};

/// \brief Runs generation -> pollution -> induction -> audit -> evaluation.
class TestEnvironment {
 public:
  explicit TestEnvironment(TestEnvironmentConfig config)
      : config_(std::move(config)) {}

  Result<ExperimentResult> Run() const;

  const TestEnvironmentConfig& config() const { return config_; }

 private:
  TestEnvironmentConfig config_;
};

}  // namespace dq

#endif  // DQ_EVAL_TEST_ENVIRONMENT_H_
