// Sec. 6.2 reproduction: audit of the QUIS engine-composition sample.
//
// Paper setup: 8 attributes, ~200000 records; error detection took ~21
// minutes on an Athlon 900 MHz and revealed ~6000 suspicious records. Two
// induced dependencies are reported:
//   BRV = 404 -> GBM = 901           (16118 instances, one deviating
//                                     instance at confidence 99.95%,
//                                     ranked first),
//   KBM = 01 AND GBM = 901 -> BRV = 501  (9530 records, deviation
//                                     confidence 92%).
// QUIS is proprietary; this runs against the synthetic surrogate with the
// same planted dependency shapes (see src/quis and DESIGN.md).

#include <algorithm>
#include <chrono>

#include "audit/auditor.h"
#include "audit/error_confidence.h"
#include "audit/review.h"
#include "audit/rule_export.h"
#include "audit/scorer.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quis/quis_sample.h"

using namespace dq;

int main(int argc, char** argv) {
  const bool quick = dq::bench::QuickMode(argc, argv);
  const int threads = dq::bench::ThreadsArg(argc, argv);
  const std::string split_mode = dq::bench::SplitModeArg(argc, argv);
  const std::string trace_out = dq::bench::TraceOutArg(argc, argv);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(!trace_out.empty());
  QuisConfig qcfg;
  qcfg.num_records = quick ? 20000 : 200000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  if (!sample.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 sample.status().ToString().c_str());
    return 1;
  }

  AuditorConfig acfg;
  acfg.min_error_confidence = 0.8;
  acfg.num_threads = threads;
  acfg.c45.split_mode = split_mode == "exact" ? SplitMode::kExact
                                              : SplitMode::kHistogram;
  Auditor auditor(acfg);
  const auto t0 = std::chrono::steady_clock::now();
  auto model = auditor.Induce(sample->table);
  if (!model.ok()) {
    std::fprintf(stderr, "induction failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  auto report = auditor.Audit(*model, sample->table);
  if (!report.ok()) {
    std::fprintf(stderr, "audit failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const double runtime_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

  std::printf("# QUIS engine-composition audit (sec. 6.2 surrogate)\n");
  std::printf("records:            %zu (paper: ~200000)\n",
              sample->table.num_rows());
  std::printf("runtime:            %.1f ms (paper: ~21 min on Athlon "
              "900 MHz)\n",
              runtime_ms);
  std::printf("suspicious records: %zu (paper: ~6000)\n",
              report->NumFlagged());

  const int threads_used = ResolveThreadCount(threads);

  // Headline rule: BRV = 404 -> GBM = 901. The planted record's Def. 8
  // confidence, flagged or not, is the one its review sheet shows.
  auto planted = ExplainRecord(*model, sample->table,
                               sample->planted_deviation_row, auditor.config());
  const double planted_conf = planted.ok() ? planted->combined_confidence : 0.0;
  size_t rank = 0;
  for (size_t i = 0; i < report->suspicious.size(); ++i) {
    if (report->suspicious[i].row == sample->planted_deviation_row) {
      rank = i + 1;
      break;
    }
  }
  std::printf("\nrule BRV = 404 -> GBM = 901:\n");
  std::printf("  instances:           %zu (paper: 16118)\n",
              sample->brv404_count);
  std::printf("  deviating instance:  confidence %.4f (paper: 0.9995), "
              "rank %zu of %zu (paper: rank 1)\n",
              planted_conf, rank, report->suspicious.size());

  // Second rule: KBM = 01 AND GBM = 901 -> BRV = 501; find a deviating
  // (non-501) record in the slice and report its confidence.
  const Schema& s = sample->table.schema();
  const int brv = *s.IndexOf("BRV");
  const int gbm = *s.IndexOf("GBM");
  const int kbm = *s.IndexOf("KBM");
  const int32_t brv501 = *s.CategoryCode(brv, "501");
  const int32_t gbm901 = *s.CategoryCode(gbm, "901");
  const int32_t kbm01 = *s.CategoryCode(kbm, "01");
  // Confidence the *BRV classifier* assigns to a record deviating from the
  // rule (the paper reports the per-rule deviation confidence, not the
  // record's overall maximum).
  double best_conf = 0.0;
  const AttributeModel* brv_model = model->ModelFor(brv);
  for (size_t r = 0; r < sample->table.num_rows(); ++r) {
    if (brv_model == nullptr) break;
    if (sample->table.cell(r, static_cast<size_t>(kbm)).nominal_code() !=
            kbm01 ||
        sample->table.cell(r, static_cast<size_t>(gbm)).nominal_code() !=
            gbm901 ||
        sample->table.cell(r, static_cast<size_t>(brv)).nominal_code() ==
            brv501) {
      continue;
    }
    const Prediction pred = PredictRecord(*brv_model, sample->table, r);
    if (pred.PredictedClass() != brv501) continue;
    const int observed = brv_model->encoder.Encode(
        sample->table.cell(r, static_cast<size_t>(brv)));
    const double conf =
        ErrorConfidence(pred, observed, auditor.config().confidence_level);
    if (conf > best_conf) best_conf = conf;
  }
  std::printf("\nrule KBM = 01 AND GBM = 901 -> BRV = 501:\n");
  std::printf("  slice size:          %zu (paper: 9530)\n",
              sample->kbm01_gbm901_count);
  std::printf("  deviation confidence: %.4f (paper: 0.92)\n", best_conf);

  std::printf("\ninduced rules touching the planted dependencies:\n");
  for (int attr : {gbm, brv}) {
    const AttributeModel* am = model->ModelFor(attr);
    if (am == nullptr) continue;
    auto rules = ExtractRules(*am, auditor.config(), /*drop_useless=*/true);
    std::sort(rules.begin(), rules.end(),
              [](const StructureRule& a, const StructureRule& b) {
                return a.support > b.support;
              });
    for (size_t i = 0; i < rules.size() && i < 2; ++i) {
      std::printf("  %s\n", rules[i].ToString(s, am->encoder).c_str());
    }
  }

  dq::bench::BenchJson json("quis_audit", argc, argv);
  json.manifest()->seed = qcfg.seed;
  json.manifest()->threads_requested = threads;
  json.manifest()->threads_used = threads_used;
  json.IncludeMetrics();
  json.Add("records", sample->table.num_rows());
  json.Add("seed", static_cast<size_t>(qcfg.seed));
  json.Add("quick", quick ? 1 : 0);
  json.Add("threads_requested", threads);
  json.Add("threads_used", threads_used);
  json.Add("split_mode", split_mode == "exact" ? 1 : 0);
  json.Add("suspicious", report->NumFlagged());
  json.Add("table_bytes", sample->table.byte_size());
  json.Add("encode_builds",
           static_cast<size_t>(obs::GetCounter("audit.encode_builds")->Value()));
  json.Add("brv404_instances", sample->brv404_count);
  json.Add("planted_confidence", planted_conf);
  json.Add("planted_rank", rank);
  json.Add("kbm01_gbm901_slice", sample->kbm01_gbm901_count);
  json.Add("kbm01_gbm901_deviation_confidence", best_conf);
  obs::SyncPoolMetrics();
  json.WriteFile();

  if (!trace_out.empty()) {
    Status written = tracer.WriteChromeTraceFile(trace_out, json.manifest());
    if (!written.ok()) {
      DQ_LOG_ERROR("bench", "%s", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  return 0;
}
