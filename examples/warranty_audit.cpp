// Warranty-database audit: the sec. 6.2 scenario end to end.
//
// Generates the synthetic QUIS engine-composition sample (~200k records at
// full scale; pass a smaller count as argv[1] for a quick run), induces the
// structure model, audits the table and prints:
//   * runtime and suspicious-record volume (paper: ~21 min on an Athlon
//     900 MHz for ~6000 suspicious records out of 200k),
//   * the top-ranked suspicious records with confidences,
//   * the induced headline rules (BRV = 404 -> GBM = 901 etc.).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "audit/auditor.h"
#include "audit/rule_export.h"
#include "quis/quis_sample.h"

using namespace dq;

int main(int argc, char** argv) {
  QuisConfig qcfg;
  qcfg.num_records = argc > 1 ? static_cast<size_t>(std::atoll(argv[1]))
                              : 200000;
  std::printf("generating QUIS engine-composition sample (%zu records)...\n",
              qcfg.num_records);
  auto sample = GenerateQuisSample(qcfg);
  if (!sample.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 sample.status().ToString().c_str());
    return 1;
  }

  AuditorConfig acfg;
  acfg.min_error_confidence = 0.8;
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
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("error detection took %.1f s and revealed %zu suspicious "
              "records\n\n",
              seconds, report->NumFlagged());

  const Schema& schema = sample->table.schema();
  std::printf("top suspicious records (cross-check these first):\n");
  for (size_t i = 0; i < report->suspicious.size() && i < 10; ++i) {
    const Suspicion& s = report->suspicious[i];
    std::printf("  #%2zu row %6zu  conf %.4f  %s = %s -> suggest %s "
                "(support %.0f)%s\n",
                i + 1, s.row, s.error_confidence,
                schema.attribute(static_cast<size_t>(s.attr)).name.c_str(),
                schema.ValueToString(s.attr, s.observed).c_str(),
                schema.ValueToString(s.attr, s.suggestion).c_str(), s.support,
                s.row == sample->planted_deviation_row
                    ? "   <-- the planted GBM deviation"
                    : "");
  }

  // The induced dependency rules for the GBM and BRV attributes.
  std::printf("\ninduced structure rules (largest support first):\n");
  for (const char* attr_name : {"GBM", "BRV"}) {
    auto idx = schema.IndexOf(attr_name);
    if (!idx.ok()) continue;
    const AttributeModel* am = model->ModelFor(*idx);
    if (am == nullptr) continue;
    auto rules = ExtractRules(*am, auditor.config(), /*drop_useless=*/true);
    std::sort(rules.begin(), rules.end(),
              [](const StructureRule& a, const StructureRule& b) {
                return a.support > b.support;
              });
    for (size_t i = 0; i < rules.size() && i < 3; ++i) {
      std::printf("  %s\n", rules[i].ToString(schema, am->encoder).c_str());
    }
  }
  return 0;
}
