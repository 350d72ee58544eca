// Quickstart: the complete data-auditing loop in ~80 lines.
//
//   1. define a schema,
//   2. build a table (here: synthetic, with a dependency and a few planted
//      errors),
//   3. induce a structure model with the Auditor,
//   4. detect deviations and print the ranked suspicious records with
//      proposed corrections.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart

#include <cstdio>

#include "audit/auditor.h"
#include "audit/rule_export.h"
#include "common/random.h"

using namespace dq;

int main() {
  // 1. A small parts catalogue: the warehouse determines the carrier.
  Schema schema;
  if (!schema.AddNominal("warehouse", {"north", "south", "east"}).ok() ||
      !schema.AddNominal("carrier", {"rail", "truck", "ship"}).ok() ||
      !schema.AddNumeric("weight_kg", 0.0, 1000.0).ok()) {
    std::fprintf(stderr, "schema definition failed\n");
    return 1;
  }

  // 2. 5000 records where carrier == f(warehouse), plus three typos.
  Table table(schema);
  Rng rng(4711);
  for (int i = 0; i < 5000; ++i) {
    const int32_t warehouse = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t carrier = warehouse;  // north->rail, south->truck, east->ship
    if (i < 3) carrier = (warehouse + 1) % 3;  // planted errors
    Row row{Value::Nominal(warehouse), Value::Nominal(carrier),
            Value::Numeric(rng.UniformReal(1.0, 900.0))};
    if (!table.AppendRow(std::move(row)).ok()) return 1;
  }

  // 3. Structure induction: one C4.5 classifier per attribute, minimal
  //    error confidence 80% (the paper's evaluation setting).
  AuditorConfig config;
  config.min_error_confidence = 0.8;
  Auditor auditor(config);
  auto model = auditor.Induce(table);
  if (!model.ok()) {
    std::fprintf(stderr, "induction failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("induced structure model:\n%s\n",
              RenderStructureModel(*model, schema, config, 5).c_str());

  // 4. Deviation detection.
  auto report = auditor.Audit(*model, table);
  if (!report.ok()) {
    std::fprintf(stderr, "audit failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("flagged %zu of %zu records as suspicious:\n",
              report->NumFlagged(), table.num_rows());
  for (const Suspicion& s : report->suspicious) {
    std::printf(
        "  row %5zu  conf %.4f  %s = %s  (suggest: %s, based on %.0f "
        "instances)\n",
        s.row, s.error_confidence,
        schema.attribute(static_cast<size_t>(s.attr)).name.c_str(),
        schema.ValueToString(s.attr, s.observed).c_str(),
        schema.ValueToString(s.attr, s.suggestion).c_str(), s.support);
  }
  return 0;
}
