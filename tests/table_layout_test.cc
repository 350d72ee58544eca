// Randomized layout-equivalence property tests for the columnar Table.
//
// The SoA rewrite keeps the row-major API as a materialization layer, so
// every ingestion path (AppendRow, Table::Append of producer-filled batch
// tables, AppendRowFrom, CSV round-trip) must produce byte-for-byte the same logical cells, the
// null bitmap must agree with Value::is_null, the EncodedDataset views must
// agree with the cells, its presort-fitted class encoders with
// ClassEncoder::Fit, and audits must be bitwise identical across
// construction paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "audit/auditor.h"
#include "common/parallel.h"
#include "common/random.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "report_rows.h"
#include "stats/descriptive.h"
#include "table/csv.h"
#include "table/date.h"
#include "table/table.h"

namespace dq {
namespace {

Schema LayoutSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("cat", {"a", "b", "c", "d"}).ok());
  EXPECT_TRUE(s.AddNumeric("x", -50.0, 50.0).ok());
  EXPECT_TRUE(s.AddDate("d", DaysFromCivil({2000, 1, 1}),
                        DaysFromCivil({2020, 12, 31}))
                  .ok());
  EXPECT_TRUE(s.AddNominal("cls", {"c0", "c1", "c2"}).ok());
  return s;
}

Row RandomRow(const Schema& s, Rng* rng, double null_prob) {
  Row row(s.num_attributes());
  for (size_t a = 0; a < s.num_attributes(); ++a) {
    if (rng->Bernoulli(null_prob)) continue;  // stays null
    const AttributeDef& def = s.attribute(a);
    switch (def.type) {
      case DataType::kNominal:
        row[a] = Value::Nominal(static_cast<int32_t>(rng->UniformInt(
            0, static_cast<int64_t>(def.categories.size()) - 1)));
        break;
      case DataType::kNumeric:
        row[a] =
            Value::Numeric(rng->UniformReal(def.numeric_min, def.numeric_max));
        break;
      case DataType::kDate:
        row[a] = Value::Date(static_cast<int32_t>(
            rng->UniformInt(def.date_min, def.date_max)));
        break;
    }
  }
  return row;
}

std::vector<Row> RandomRows(const Schema& s, size_t n, double null_prob,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) rows.push_back(RandomRow(s, &rng, null_prob));
  return rows;
}

void ExpectIdenticalCells(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      const Value va = a.cell(r, c);
      const Value vb = b.cell(r, c);
      EXPECT_TRUE(va.StrictEquals(vb))
          << "cell (" << r << ", " << c << "): " << va.ToDebugString()
          << " vs " << vb.ToDebugString();
      EXPECT_EQ(a.is_null(r, c), va.is_null()) << "(" << r << ", " << c << ")";
      EXPECT_EQ(b.is_null(r, c), vb.is_null()) << "(" << r << ", " << c << ")";
    }
  }
}

TEST(TableLayoutTest, AppendPathsProduceIdenticalCells) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 500, 0.15, 91);

  Table by_row(s);
  for (const Row& row : rows) ASSERT_TRUE(by_row.AppendRow(row).ok());

  // Chunked columnar path, including a chunk boundary mid-table. The
  // batch table is reused the way the decoders reuse theirs: Resize keeps
  // the old payloads and clears the null bits, then every cell is written.
  Table by_chunk(s);
  Table chunk(s);
  for (size_t start = 0; start < rows.size(); start += 128) {
    const size_t count = std::min<size_t>(128, rows.size() - start);
    chunk.Resize(count);
    for (size_t i = 0; i < count; ++i) {
      for (size_t a = 0; a < s.num_attributes(); ++a) {
        chunk.SetCell(i, a, rows[start + i][a]);
      }
    }
    by_chunk.Append(chunk);
  }
  ExpectIdenticalCells(by_row, by_chunk);

  // Chunks that start and end off the 64-row null-bitmap words, so
  // Append shifts every bitmap word across two words of the table.
  Table by_ragged_chunk(s);
  const size_t ragged[] = {77, 200, 31, 64, 128};
  for (size_t start = 0, k = 0; start < rows.size(); ++k) {
    const size_t count = std::min(ragged[k % 5], rows.size() - start);
    chunk.Resize(count);
    for (size_t i = 0; i < count; ++i) {
      for (size_t a = 0; a < s.num_attributes(); ++a) {
        chunk.SetCell(i, a, rows[start + i][a]);
      }
    }
    by_ragged_chunk.Append(chunk);
    start += count;
  }
  ExpectIdenticalCells(by_row, by_ragged_chunk);
  for (size_t a = 0; a < s.num_attributes(); ++a) {
    EXPECT_EQ(by_ragged_chunk.null_words(a), by_row.null_words(a)) << a;
  }

  // Column-to-column row copies.
  Table by_copy(s);
  for (size_t r = 0; r < by_row.num_rows(); ++r) {
    by_copy.AppendRowFrom(by_row, r);
  }
  ExpectIdenticalCells(by_row, by_copy);

  // row() materialization round-trips every cell.
  for (size_t r = 0; r < by_row.num_rows(); ++r) {
    const Row materialized = by_row.row(r);
    ASSERT_EQ(materialized.size(), rows[r].size());
    for (size_t a = 0; a < materialized.size(); ++a) {
      EXPECT_TRUE(materialized[a].StrictEquals(rows[r][a]));
    }
  }
}

TEST(TableLayoutTest, NullSentinelsBackTheBitmap) {
  const Schema s = LayoutSchema();
  Table t(s);
  Row row(s.num_attributes());  // all null
  ASSERT_TRUE(t.AppendRow(row).ok());
  row[0] = Value::Nominal(2);
  row[1] = Value::Numeric(7.25);
  row[2] = Value::Date(DaysFromCivil({2010, 6, 1}));
  row[3] = Value::Nominal(1);
  ASSERT_TRUE(t.AppendRow(row).ok());

  // Null cells expose the documented sentinels through the typed views so
  // encoders can use NaN / -1 tests instead of bitmap probes.
  EXPECT_TRUE(std::isnan(t.numeric_col(1)[0]));
  EXPECT_EQ(t.code_col(0)[0], -1);
  EXPECT_EQ(t.code_col(2)[0], 0);
  EXPECT_TRUE(std::isnan(t.ordered_at(0, 2)));
  EXPECT_TRUE(t.is_null(0, 0));
  EXPECT_FALSE(t.is_null(1, 0));
  EXPECT_EQ(t.code_at(1, 0), 2);
  EXPECT_DOUBLE_EQ(t.numeric_at(1, 1), 7.25);
  EXPECT_DOUBLE_EQ(t.ordered_at(1, 2),
                   static_cast<double>(DaysFromCivil({2010, 6, 1})));

  // Overwriting with null restores the sentinel and the bit.
  t.SetCell(1, 1, Value::Null());
  EXPECT_TRUE(t.is_null(1, 1));
  EXPECT_TRUE(std::isnan(t.numeric_col(1)[1]));
  EXPECT_TRUE(t.cell(1, 1).is_null());
}

TEST(TableLayoutTest, CsvRoundTripPreservesEveryCell) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 300, 0.2, 17);
  Table t(s);
  for (const Row& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, &out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(s, &in);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectIdenticalCells(t, *back);
}

TEST(TableLayoutTest, EncodedDatasetViewsMatchCells) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 400, 0.1, 23);
  Table t(s);
  for (const Row& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());

  const EncodedDataset enc = EncodedDataset::Build(t, 8);
  for (size_t a = 0; a < s.num_attributes(); ++a) {
    if (s.attribute(a).type == DataType::kNominal) {
      ASSERT_NE(enc.nominal_col(a), nullptr);
      EXPECT_EQ(enc.ordered_col(a), nullptr);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        const Value v = t.cell(r, a);
        EXPECT_EQ(enc.nominal_col(a)[r], v.is_null() ? -1 : v.nominal_code());
      }
    } else {
      ASSERT_NE(enc.ordered_col(a), nullptr);
      EXPECT_EQ(enc.nominal_col(a), nullptr);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        const Value v = t.cell(r, a);
        if (v.is_null()) {
          EXPECT_TRUE(std::isnan(enc.ordered_col(a)[r]));
        } else {
          EXPECT_EQ(enc.ordered_col(a)[r], v.OrderedValue());
        }
      }
      // The shared sort order covers exactly the value-known rows, is
      // value-ascending and breaks ties by row (stable).
      const auto& order = enc.sort_order(a);
      size_t known = 0;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (!t.cell(r, a).is_null()) ++known;
      }
      EXPECT_EQ(order.size(), known);
      for (size_t i = 1; i < order.size(); ++i) {
        const double prev = enc.ordered_col(a)[order[i - 1]];
        const double cur = enc.ordered_col(a)[order[i]];
        EXPECT_TRUE(prev < cur || (prev == cur && order[i - 1] < order[i]));
      }
    }
    // Cached class codes agree with the fitted encoder, cell by cell.
    if (enc.encoder(a).has_value()) {
      ASSERT_NE(enc.class_codes(a), nullptr);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        EXPECT_EQ(enc.class_codes(a)[r], enc.encoder(a)->Encode(t.cell(r, a)));
      }
    }
  }
}

/// The doubles' bit patterns, so a sign-of-zero or last-ulp change shows.
std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<uint64_t>(x));
  return out;
}

/// EqualFrequencyDiscretizer::Fit as it was before it read its medians off
/// the sorted sample, kept verbatim as the oracle: cuts, then each bin's
/// members copied out and handed to Median.
std::pair<std::vector<double>, std::vector<double>> ReferenceFit(
    std::vector<double> sample, int max_bins) {
  std::sort(sample.begin(), sample.end());
  std::vector<double> cuts;
  std::vector<double> reps;
  const size_t n = sample.size();
  const size_t bins = std::min<size_t>(static_cast<size_t>(max_bins), n);
  for (size_t b = 1; b < bins; ++b) {
    const size_t idx = b * n / bins;
    if (idx == 0 || idx >= n) continue;
    const double lo = sample[idx - 1];
    const double hi = sample[idx];
    if (hi > lo) {
      const double cut = (lo + hi) / 2.0;
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
  }
  std::vector<double> members;
  size_t i = 0;
  for (size_t b = 0; b <= cuts.size(); ++b) {
    members.clear();
    const double upper =
        b < cuts.size() ? cuts[b] : std::numeric_limits<double>::infinity();
    while (i < n && sample[i] <= upper) {
      members.push_back(sample[i]);
      ++i;
    }
    reps.push_back(members.empty() ? upper : Median(members));
  }
  return {cuts, reps};
}

TEST(TableLayoutTest, PresortFittedEncoderMatchesClassEncoderFit) {
  // Ordered columns with nulls and heavy ties: a numeric one mixing a few
  // repeated values with continuous ones, and a date one over a short
  // range. EncodedDataset fits each class discretizer from the presorted
  // values; ClassEncoder::Fit sorts its own sample.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("x", -10.0, 10.0).ok());
  ASSERT_TRUE(s.AddDate("d", DaysFromCivil({2010, 1, 1}),
                        DaysFromCivil({2010, 3, 1}))
                  .ok());
  Table t(s);
  Rng rng(41);
  for (size_t r = 0; r < 3000; ++r) {
    Row row(2);
    if (!rng.Bernoulli(0.15)) {
      row[0] = Value::Numeric(
          rng.Bernoulli(0.6)
              ? static_cast<double>(rng.UniformInt(-3, 3)) * 1.5
              : rng.UniformReal(-10.0, 10.0));
    }
    if (!rng.Bernoulli(0.1)) {
      row[1] = Value::Date(static_cast<int32_t>(
          rng.UniformInt(DaysFromCivil({2010, 1, 1}),
                         DaysFromCivil({2010, 3, 1}))));
    }
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ThreadPool pool(2);
  for (const int max_bins : {1, 3, 8, 20, 64, 5000}) {
    const EncodedDataset inline_enc = EncodedDataset::Build(t, max_bins);
    const EncodedDataset pooled_enc =
        EncodedDataset::Build(t, max_bins, &pool);
    for (size_t a = 0; a < 2; ++a) {
      std::vector<double> sample;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        if (!t.is_null(r, a)) sample.push_back(t.ordered_at(r, a));
      }
      const auto [cuts, reps] = ReferenceFit(sample, max_bins);
      const auto fitted =
          ClassEncoder::Fit(t, static_cast<int>(a), max_bins);
      ASSERT_TRUE(fitted.ok()) << fitted.status();
      ASSERT_TRUE(inline_enc.encoder(a).has_value());
      ASSERT_TRUE(pooled_enc.encoder(a).has_value());
      for (const ClassEncoder* enc :
           {&*fitted, &*inline_enc.encoder(a), &*pooled_enc.encoder(a)}) {
        const EqualFrequencyDiscretizer& got = *enc->discretizer();
        EXPECT_EQ(Bits(got.cut_points()), Bits(cuts))
            << "attr " << a << ", bins " << max_bins;
        ASSERT_EQ(static_cast<size_t>(got.num_bins()), reps.size());
        for (int b = 0; b < got.num_bins(); ++b) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got.Representative(b)),
                    std::bit_cast<uint64_t>(reps[static_cast<size_t>(b)]))
              << "attr " << a << ", bins " << max_bins << ", bin " << b;
        }
      }
    }
  }
}

TEST(TableLayoutTest, AuditReportIdenticalAcrossConstructionPaths) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 1200, 0.05, 47);

  Table by_row(s);
  for (const Row& row : rows) ASSERT_TRUE(by_row.AppendRow(row).ok());
  Table by_chunk(s);
  Table chunk(s);
  chunk.Resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t a = 0; a < s.num_attributes(); ++a) {
      chunk.SetCell(i, a, rows[i][a]);
    }
  }
  by_chunk.Append(chunk);

  AuditorConfig cfg;
  cfg.num_threads = 1;
  Auditor auditor(cfg);
  auto model_a = auditor.Induce(by_row);
  auto model_b = auditor.Induce(by_chunk);
  ASSERT_TRUE(model_a.ok());
  ASSERT_TRUE(model_b.ok());
  auto report_a = auditor.Audit(*model_a, by_row);
  auto report_b = auditor.Audit(*model_b, by_chunk);
  ASSERT_TRUE(report_a.ok());
  ASSERT_TRUE(report_b.ok());
  EXPECT_EQ(report_a->suspicious.size(), report_b->suspicious.size());
  // At min_error_confidence 0 the lists hold every record's score.
  AuditorConfig all = cfg;
  all.min_error_confidence = 0.0;
  auto all_a = Auditor(all).Audit(*model_a, by_row);
  auto all_b = Auditor(all).Audit(*model_b, by_chunk);
  ASSERT_TRUE(all_a.ok());
  ASSERT_TRUE(all_b.ok());
  ExpectSameSuspicions(*all_a, *all_b);
}

TEST(TableLayoutTest, ChunkKeepMaskDropsExactlyUnkeptSlots) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 200, 0.1, 53);
  Rng rng(61);
  std::vector<uint8_t> keep(rows.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    keep[i] = rng.Bernoulli(0.7) ? 1 : 0;
  }

  Table chunk(s);
  chunk.Resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t a = 0; a < s.num_attributes(); ++a) {
      chunk.SetCell(i, a, rows[i][a]);
    }
  }
  Table t(s);
  t.Append(chunk, &keep);

  Table expected(s);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (keep[i] != 0) {
      ASSERT_TRUE(expected.AppendRow(rows[i]).ok());
    }
  }
  ExpectIdenticalCells(expected, t);
}

TEST(TableLayoutTest, RemoveRowsMatchesOneByOneRemoval) {
  const Schema s = LayoutSchema();
  const std::vector<Row> rows = RandomRows(s, 300, 0.1, 67);
  Table batched(s);
  Table serial(s);
  for (const Row& row : rows) {
    ASSERT_TRUE(batched.AppendRow(row).ok());
    ASSERT_TRUE(serial.AppendRow(row).ok());
  }

  Rng rng(71);
  std::vector<size_t> to_remove;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rng.Bernoulli(0.3)) to_remove.push_back(r);
  }
  batched.RemoveRows(to_remove);
  for (size_t i = to_remove.size(); i-- > 0;) {
    serial.RemoveRow(to_remove[i]);  // descending keeps indices stable
  }
  ExpectIdenticalCells(serial, batched);
  EXPECT_EQ(batched.num_rows(), rows.size() - to_remove.size());
}

}  // namespace
}  // namespace dq
