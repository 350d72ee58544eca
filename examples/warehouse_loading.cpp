// Warehouse loading: the asynchronous audit workflow of sec. 2.2.
//
// "While the time-consuming structure induction can be prepared off-line,
// new data can be checked for deviations and loaded quickly."
//
// Phase 1 (off-line): induce the structure model on historical data and
// persist it as a rule-set file.
// Phase 2 (load time): read the persisted model and screen each incoming
// batch before loading, without re-induction.

#include <chrono>
#include <cstdio>

#include "audit/auditor.h"
#include "eval/test_environment.h"

using namespace dq;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  Schema schema = MakeBaseSchema();

  // Shared generator setup: historical data and tonight's batch follow the
  // same (hidden) business rules.
  RuleGenConfig rcfg;
  rcfg.num_rules = 40;
  rcfg.seed = 11;
  auto rules = RuleGenerator(&schema, rcfg).Generate();
  if (!rules.ok()) return 1;
  auto net = MakeBaseBayesNet(&schema, 12);
  if (!net.ok()) return 1;
  DataGenerator gen(&schema, MakeBaseDistributions(schema, 12), net->get(),
                    *rules);

  // --- Phase 1: off-line structure induction --------------------------------
  DataGenConfig history_cfg;
  history_cfg.num_records = 20000;
  history_cfg.seed = 13;
  auto history = gen.Generate(history_cfg);
  if (!history.ok()) return 1;

  AuditorConfig acfg;
  acfg.min_error_confidence = 0.8;
  Auditor auditor(acfg);
  auto t0 = std::chrono::steady_clock::now();
  auto model = auditor.Induce(history->table);
  if (!model.ok()) {
    std::fprintf(stderr, "induction failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  const double induce_ms = MsSince(t0);

  const std::string model_path = "warehouse_structure.dqmodel";
  if (!model->SaveToFile(model_path).ok()) return 1;
  std::printf("off-line: induced structure model on %zu historical records "
              "in %.0f ms; persisted %zu rules to %s\n",
              history->table.num_rows(), induce_ms, model->TotalRules(),
              model_path.c_str());

  // --- Phase 2: nightly load ------------------------------------------------
  auto loaded = AuditModel::LoadFromFile(schema, model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }

  DataGenConfig batch_cfg;
  batch_cfg.num_records = 2000;
  batch_cfg.seed = 17;
  auto batch = gen.Generate(batch_cfg);
  if (!batch.ok()) return 1;
  PollutionPipeline polluter(DefaultPolluterMix(), 19);
  auto dirty_batch = polluter.Apply(batch->table);
  if (!dirty_batch.ok()) return 1;

  t0 = std::chrono::steady_clock::now();
  auto report = loaded->Check(dirty_batch->dirty, acfg);
  const double check_ms = MsSince(t0);
  if (!report.ok()) return 1;

  size_t true_hits = 0;
  for (const Suspicion& s : report->suspicious) {
    if (dirty_batch->is_corrupted[s.row]) ++true_hits;
  }
  std::printf("load time: screened %zu incoming records in %.0f ms "
              "(%.0fx faster than re-induction)\n",
              dirty_batch->dirty.num_rows(), check_ms,
              induce_ms / std::max(check_ms, 0.1));
  std::printf("           %zu records held back for review (%zu are real "
              "injected errors; %zu records were corrupted in total)\n",
              report->NumFlagged(), true_hits,
              dirty_batch->CorruptedCount());
  std::printf("           batch passes with %zu records loaded directly\n",
              dirty_batch->dirty.num_rows() - report->NumFlagged());
  return 0;
}
