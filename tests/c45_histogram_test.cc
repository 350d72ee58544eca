// Histogram split evaluator tests: the radix presort, value binning,
// exact-vs-histogram tree identity in the bins-cover-every-distinct-value
// regime (split midpoints near the largest double, a bin's bound and a
// nominal dictionary too wide to histogram included), invariance under
// sibling subtraction and occupancy masks, and statistical equivalence of
// full audits when binning is genuinely lossy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "common/random.h"
#include "midpoint_pairs.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "mining/histogram.h"
#include "obs/metrics.h"
#include "quis/quis_sample.h"

namespace dq {
namespace {

// --- SortRowsByValue -------------------------------------------------------

/// The presort SortRowsByValue replaced: known rows, std::stable_sort by
/// `<`.
std::vector<uint32_t> SortOrder(const std::vector<double>& col) {
  std::vector<uint32_t> order;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!std::isnan(col[r])) order.push_back(static_cast<uint32_t>(r));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&col](uint32_t x, uint32_t y) { return col[x] < col[y]; });
  return order;
}

/// A column mixing nulls, both zeros, duplicates, subnormals, +-DBL_MAX,
/// infinities, widened day counts and values of every magnitude.
std::vector<double> HostileColumn(size_t n, uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,
                             -0.0,
                             DBL_MAX,
                             -DBL_MAX,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             3e-310,
                             -2.5e-320,
                             DBL_MIN,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1.0,
                             -1.0};
  Rng rng(seed);
  std::vector<double> col(n);
  for (double& v : col) {
    const double kind = rng.UniformReal(0.0, 1.0);
    if (kind < 0.1) {
      v = nan;
    } else if (kind < 0.3) {
      v = specials[rng.UniformInt(0, std::size(specials) - 1)];
    } else if (kind < 0.55) {
      // A widened date: a day count in [1990-01-01, 2010-12-31].
      v = static_cast<double>(rng.UniformInt(7305, 14974));
    } else if (kind < 0.75) {
      v = static_cast<double>(rng.UniformInt(-20, 20)) * 0.25;  // duplicates
    } else {
      v = rng.UniformReal(-1.0, 1.0) *
          std::ldexp(1.0, static_cast<int>(rng.UniformInt(-1070, 1023)));
    }
  }
  return col;
}

TEST(EncodedDatasetTest, RadixPresortEqualsStableSort) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{2049},
                         size_t{20000}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<double> col = HostileColumn(n, seed * 1000 + n);
      EXPECT_EQ(SortRowsByValue(col.data(), n), SortOrder(col)) << "n=" << n;
    }
  }
  // A column of nulls only has no known rows.
  const std::vector<double> nulls(5, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(SortRowsByValue(nulls.data(), nulls.size()).empty());
  // Both zeros tie and keep their row order, after every negative.
  const std::vector<double> zeros = {0.0, -0.0, -1e-300, 0.0, -0.0};
  EXPECT_EQ(SortRowsByValue(zeros.data(), zeros.size()),
            (std::vector<uint32_t>{2, 0, 1, 3, 4}));
}

// --- BuildAttributeBins ---------------------------------------------------

TEST(AttributeBinsTest, FewDistinctValuesGetOneBinEach) {
  const std::vector<double> col = {5.0, 1.0, 5.0, 3.0, 1.0, 3.0, 3.0};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  ASSERT_EQ(bins.num_bins, 3);
  EXPECT_EQ(bins.lower, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(bins.upper, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(bins.codes,
            (std::vector<uint8_t>{2, 0, 2, 1, 0, 1, 1}));
}

TEST(AttributeBinsTest, NullRowsGetTheNullCode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> col = {2.0, nan, 1.0, nan};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  ASSERT_EQ(bins.num_bins, 2);
  EXPECT_EQ(bins.codes[0], 1);
  EXPECT_EQ(bins.codes[1], kNullBinCode);
  EXPECT_EQ(bins.codes[2], 0);
  EXPECT_EQ(bins.codes[3], kNullBinCode);
}

TEST(AttributeBinsTest, AllNullColumnYieldsZeroBins) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> col = {nan, nan};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  EXPECT_EQ(bins.num_bins, 0);
  EXPECT_EQ(bins.codes[0], kNullBinCode);
}

TEST(AttributeBinsTest, ManyDistinctValuesRespectBudgetAndRuns) {
  Rng rng(31);
  std::vector<double> col(20000);
  for (double& v : col) {
    // ~1000 distinct values, heavy ties: runs must never be split.
    v = static_cast<double>(rng.UniformInt(0, 999));
  }
  const std::vector<uint32_t> order = SortOrder(col);
  for (const int budget : {255, 64, 16, 1}) {
    const AttributeBins bins =
        BuildAttributeBins(col.data(), order, col.size(), budget);
    ASSERT_GE(bins.num_bins, 1) << "budget " << budget;
    ASSERT_LE(bins.num_bins, budget) << "budget " << budget;
    for (int b = 0; b + 1 < bins.num_bins; ++b) {
      // Bins are ordered and disjoint: equal values share one bin.
      EXPECT_LE(bins.lower[static_cast<size_t>(b)],
                bins.upper[static_cast<size_t>(b)]);
      EXPECT_LT(bins.upper[static_cast<size_t>(b)],
                bins.lower[static_cast<size_t>(b) + 1]);
    }
    for (size_t r = 0; r < col.size(); ++r) {
      const uint8_t code = bins.codes[r];
      ASSERT_NE(code, kNullBinCode);
      EXPECT_GE(col[r], bins.lower[code]);
      EXPECT_LE(col[r], bins.upper[code]);
    }
  }
}

// --- exact vs histogram tree identity ------------------------------------

Schema MiningSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2", "y3"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// Null-free table whose numeric attribute takes at most 101 distinct
/// values: per-distinct bins cover every threshold the exact sweep tests,
/// and unit weights make all histogram sums integer-exact, so the two
/// evaluators must grow the SAME tree.
Table QuantizedTable(size_t rows, uint64_t seed) {
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    const double z = static_cast<double>(rng.UniformInt(0, 100));
    int32_t cls = z <= 50.0 ? x : (x + 1) % 3;
    if (rng.Bernoulli(0.03)) cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    row[2] = Value::Numeric(z);
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

C45Tree TrainTree(const EncodedDataset& cache, C45Config cfg) {
  const TrainingData td{&cache, 3, {0, 1, 2}};
  cfg.min_error_confidence = 0.8;
  C45Tree tree(cfg);
  EXPECT_TRUE(tree.Train(td).ok());
  return tree;
}

void ExpectSameTrees(const C45Tree& a, const C45Tree& b,
                     const EncodedDataset& cache) {
  const Schema& schema = cache.table()->schema();
  EXPECT_EQ(a.NodeCount(), b.NodeCount());
  EXPECT_EQ(a.LeafCount(), b.LeafCount());
  EXPECT_EQ(a.ToString(schema, *cache.encoder(3)),
            b.ToString(schema, *cache.encoder(3)));
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Row probe(4);
    probe[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    probe[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    probe[2] = rng.Bernoulli(0.1)
                   ? Value::Null()
                   : Value::Numeric(rng.UniformReal(0, 100));
    const Prediction pa = a.Predict(probe);
    const Prediction pb = b.Predict(probe);
    ASSERT_EQ(pa.distribution.size(), pb.distribution.size());
    for (size_t c = 0; c < pa.distribution.size(); ++c) {
      EXPECT_EQ(pa.distribution[c], pb.distribution[c]);
    }
    EXPECT_EQ(pa.support, pb.support);
  }
}

/// Field-for-field equality of two compiled trees, leaf counts included.
void ExpectSameCompiledTrees(const CompiledTree& a, const CompiledTree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const CompiledTree::Node& x = a.nodes()[i];
    const CompiledTree::Node& y = b.nodes()[i];
    EXPECT_EQ(x.attr, y.attr) << "node " << i;
    EXPECT_EQ(x.ordered, y.ordered) << "node " << i;
    EXPECT_EQ(x.first, y.first) << "node " << i;
    EXPECT_EQ(x.children, y.children) << "node " << i;
    EXPECT_EQ(x.majority, y.majority) << "node " << i;
    EXPECT_EQ(x.threshold, y.threshold) << "node " << i;
    EXPECT_EQ(x.known_weight, y.known_weight) << "node " << i;
    EXPECT_EQ(x.branch_weight, y.branch_weight) << "node " << i;
    EXPECT_EQ(x.weight, y.weight) << "node " << i;
  }
  for (uint32_t leaf = 0; leaf < a.num_leaves(); ++leaf) {
    for (int c = 0; c < a.num_classes(); ++c) {
      EXPECT_EQ(a.leaf_counts(leaf)[c], b.leaf_counts(leaf)[c]);
    }
  }
}

/// Null-free table whose class follows W, a nominal attribute with 1100
/// categories: more than a nominal histogram holds (1024), so the
/// histogram evaluator scores W by scanning each node's instances. Rows
/// take only W's first and last category, so a scan that misses either
/// sees one branch and cannot split on W.
Table WideNominalTable(size_t rows, uint64_t seed) {
  constexpr int32_t kCategories = 1100;
  std::vector<std::string> categories;
  for (int32_t w = 0; w < kCategories; ++w) {
    categories.push_back("w" + std::to_string(w));
  }
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", categories).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const bool last = rng.Bernoulli(0.5);
    const int32_t w = last ? kCategories - 1 : 0;
    int32_t cls = last ? 1 : 0;
    if (rng.Bernoulli(0.03)) cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(4);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    row[1] = Value::Nominal(w);
    row[2] = Value::Numeric(static_cast<double>(rng.UniformInt(0, 100)));
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(C45HistogramTest, MatchesExactWhenBinsCoverEveryDistinctValue) {
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide nominal" : "quantized");
    const Table t = wide ? WideNominalTable(4000, 9) : QuantizedTable(4000, 9);
    const EncodedDataset cache = EncodedDataset::Build(t, 8);

    C45Config exact_cfg;
    exact_cfg.split_mode = SplitMode::kExact;
    const C45Tree exact = TrainTree(cache, exact_cfg);

    C45Config hist_cfg;
    hist_cfg.split_mode = SplitMode::kHistogram;
    const C45Tree hist = TrainTree(cache, hist_cfg);

    EXPECT_GT(exact.NodeCount(), 1u);  // the comparison must not be vacuous
    ExpectSameTrees(exact, hist, cache);
    ExpectSameCompiledTrees(exact.compiled(), hist.compiled());
    if (wide) {
      EXPECT_EQ(hist.compiled().nodes()[0].attr, 1);  // W
    }
  }
}

TEST(C45HistogramTest, MatchesExactThroughTheSharedEncodeCache) {
  // One cache serves both evaluators: the exact sweep reads its sort
  // orders, the histogram evaluator its bins.
  const Table t = QuantizedTable(3000, 10);
  const EncodedDataset cache = EncodedDataset::Build(t, 8);
  ASSERT_TRUE(cache.encoder(3).has_value());

  C45Config exact_cfg;
  exact_cfg.split_mode = SplitMode::kExact;
  const C45Tree exact = TrainTree(cache, exact_cfg);

  C45Config hist_cfg;
  hist_cfg.split_mode = SplitMode::kHistogram;
  const C45Tree hist = TrainTree(cache, hist_cfg);

  ExpectSameTrees(exact, hist, cache);
}

/// MiningSchema rows whose Z is null at `null_rate`. Nulls spread
/// fractional weights into every branch of a Z split, so deep nodes carry
/// non-integral histograms. X = x2 (15% of rows) always has class c2, so
/// a split on X leaves a pure, terminal x2 child beside the large ones:
/// its histograms are scanned only to complete the subtraction of its
/// largest sibling. Y decides the class above Z = 50, and Y = y3 rows
/// take even Z values only, so a node below a Y split occupies every
/// other Z bin: its mask has gaps that an inherited parent mask does not.
Table NullHeavyTable(size_t rows, uint64_t seed, double null_rate) {
  Table t(MiningSchema());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x =
        rng.Bernoulli(0.15) ? 2 : static_cast<int32_t>(rng.UniformInt(0, 1));
    const int32_t y = static_cast<int32_t>(rng.UniformInt(0, 3));
    const int64_t z_step = y == 3 ? 2 : 1;
    const double z =
        static_cast<double>(rng.UniformInt(0, 100 / z_step) * z_step);
    int32_t cls = x == 2 ? 2 : (z <= 50.0 || y >= 2 ? x : 1 - x);
    if (x != 2 && rng.Bernoulli(0.03)) {
      cls = static_cast<int32_t>(rng.UniformInt(0, 1));
    }
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    if (!rng.Bernoulli(null_rate)) row[2] = Value::Numeric(z);
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(C45HistogramTest, SubtractionDoesNotChangeTheTree) {
  // Large homogeneous children so the subtraction path actually triggers.
  // The exact sweep never builds a histogram, so it is the oracle for the
  // reconstructed children. The null-heavy input adds families whose
  // terminal siblings are scanned to support the subtraction, and
  // subtraction children whose inherited masks name empty bins.
  for (const double null_rate : {0.0, 0.3}) {
    SCOPED_TRACE(null_rate);
    const Table t = null_rate > 0.0 ? NullHeavyTable(12000, 11, null_rate)
                                    : QuantizedTable(12000, 11);
    const EncodedDataset cache = EncodedDataset::Build(t, 8);

    C45Config exact_cfg;
    exact_cfg.split_mode = SplitMode::kExact;
    const C45Tree exact = TrainTree(cache, exact_cfg);

    obs::Counter* const subtractions =
        obs::GetCounter("c45.histogram_subtractions");
    const uint64_t before = subtractions->Value();
    const C45Tree subtracted = TrainTree(cache, C45Config{});
    EXPECT_GT(subtractions->Value(), before);

    ExpectSameTrees(exact, subtracted, cache);
  }
}

TEST(C45HistogramTest, ThresholdOnTheRightBinsBoundPartitionsByValue) {
  // Two adjacent doubles whose midpoint is a tie that rounds up onto the
  // larger one: the threshold equals the right bin's lower bound, so the
  // right bin's rows satisfy value <= threshold and go left. The
  // histogram tree must partition by value, as the exact sweep does, on
  // this per-distinct input.
  const double lo = std::ldexp(1.0, 40) + std::ldexp(1.0, -12);
  const double hi = std::nextafter(lo, INFINITY);
  ASSERT_EQ(std::midpoint(lo, hi), hi);
  Schema s;
  ASSERT_TRUE(s.AddNominal("X", {"x0", "x1"}).ok());
  ASSERT_TRUE(s.AddNumeric("Z", 0.0, std::ldexp(1.0, 41)).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"c0", "c1"}).ok());
  Table t(s);
  Rng rng(41);
  for (size_t r = 0; r < 600; ++r) {
    const bool high = rng.Bernoulli(0.5);
    Row row(3);
    row[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 1)));
    row[1] = Value::Numeric(high ? hi : lo);
    row[2] = Value::Nominal(high != rng.Bernoulli(0.05) ? 1 : 0);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset cache = EncodedDataset::Build(t, 8);
  ASSERT_EQ(cache.bins(1)->num_bins, 2);
  const TrainingData td{&cache, 2, {0, 1}};
  C45Config exact_cfg;
  exact_cfg.split_mode = SplitMode::kExact;
  C45Tree exact(exact_cfg);
  ASSERT_TRUE(exact.Train(td).ok());
  C45Tree hist;
  ASSERT_TRUE(hist.Train(td).ok());

  const CompiledTree::Node& root = hist.compiled().nodes()[0];
  ASSERT_EQ(root.attr, 1);
  EXPECT_EQ(root.threshold, hi);
  EXPECT_EQ(hist.NodeCount(), exact.NodeCount());
  EXPECT_EQ(hist.ToString(s, *cache.encoder(2)),
            exact.ToString(s, *cache.encoder(2)));
  for (const double z : {lo, hi}) {
    for (int32_t x = 0; x < 2; ++x) {
      Row probe(3);
      probe[0] = Value::Nominal(x);
      probe[1] = Value::Numeric(z);
      EXPECT_EQ(hist.Predict(probe).distribution,
                exact.Predict(probe).distribution);
    }
  }
}

/// The 400-row input of the midpoint overflow: class A's x rows have
/// B = 1e308 and its y rows B = 1.6e308 (times `sign`), whose sum
/// overflows to +-inf; C is independent of A.
Table HugeValueTable(double sign) {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"x", "y"}).ok());
  EXPECT_TRUE(s.AddNumeric("B", -1.7e308, 1.7e308).ok());
  EXPECT_TRUE(s.AddNominal("C", {"p", "q"}).ok());
  Table t(s);
  for (size_t r = 0; r < 400; ++r) {
    Row row(3);
    row[0] = Value::Nominal(r % 2 == 0 ? 0 : 1);
    row[1] = Value::Numeric(sign * (r % 2 == 0 ? 1e308 : 1.6e308));
    row[2] = Value::Nominal((r / 2) % 2 == 0 ? 0 : 1);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

TEST(C45HistogramTest, HugeValuesSplitOnceAtAFiniteMidpoint) {
  // (1e308 + 1.6e308) / 2 is inf: every row went left of `<= inf`, and
  // the same split repeated down to max_depth. Mirrored, the threshold
  // was -inf and every row went right.
  for (const double sign : {1.0, -1.0}) {
    const Table t = HugeValueTable(sign);
    const EncodedDataset cache = EncodedDataset::Build(t, 8);
    const TrainingData td{&cache, 0, {1, 2}};
    for (const SplitMode mode : {SplitMode::kHistogram, SplitMode::kExact}) {
      SCOPED_TRACE(std::string(SplitModeToString(mode)) +
                   (sign > 0 ? " +" : " -"));
      C45Config cfg;
      cfg.split_mode = mode;
      C45Tree tree(cfg);
      ASSERT_TRUE(tree.Train(td).ok());
      EXPECT_LE(tree.TreeDepth(), 2u);
      const CompiledTree::Node& root = tree.compiled().nodes()[0];
      ASSERT_EQ(root.attr, 1);
      EXPECT_EQ(root.threshold, sign * 1.3e308);
    }
  }
}

TEST(C45HistogramTest, ExactThresholdIsTheHalvedSumInRange) {
  // Two rows at each of two values a < b, one class each: the exact
  // sweep's only candidate is their midpoint, (a + b) / 2 bit for bit
  // while |a| and |b| stay within DBL_MAX / 2.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("Z", -DBL_MAX, DBL_MAX).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"c0", "c1"}).ok());
  C45Config cfg;
  cfg.split_mode = SplitMode::kExact;
  cfg.min_error_confidence = 0.0;
  Rng rng(43);
  for (int i = 0; i < 100000; ++i) {
    const auto [a, b] = InRangePair(&rng);
    if (b - a <= 1e-9) continue;  // one distinct value to the binning
    Table t(s);
    for (const double z : {a, b, a, b}) {
      Row row(2);
      row[0] = Value::Numeric(z);
      row[1] = Value::Nominal(z == a ? 0 : 1);
      t.AppendRowUnchecked(std::move(row));
    }
    const EncodedDataset cache = EncodedDataset::Build(t, 2);
    C45Tree tree(cfg);
    ASSERT_TRUE(tree.Train(TrainingData{&cache, 1, {0}}).ok());
    ASSERT_EQ(tree.compiled().nodes().size(), 3u) << a << " " << b;
    ASSERT_EQ(tree.compiled().nodes()[0].threshold, (a + b) / 2)
        << a << " " << b;
  }
}

TEST(C45HistogramTest, QuisTreesMatchExactWhenBinsCoverEveryValue) {
  // Every tree of an audit of the QUIS surrogate, with displacement
  // rounded to 100 and production dates to 30-day steps so that each
  // ordered value gets its own bin: the histogram trees, grown over six
  // nominal attributes with real dependencies, must equal the exact
  // sweep's bit for bit.
  QuisConfig qcfg;
  qcfg.num_records = 20000;
  qcfg.seed = 7;
  qcfg.noise_prob = 0.1;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  const Schema& schema = sample->table.schema();
  Table t(schema);
  for (size_t r = 0; r < sample->table.num_rows(); ++r) {
    Row row = sample->table.row(r);
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (row[a].is_null()) continue;
      if (schema.attribute(a).type == DataType::kNumeric) {
        row[a] = Value::Numeric(std::round(row[a].numeric() / 100.0) * 100.0);
      } else if (schema.attribute(a).type == DataType::kDate) {
        row[a] = Value::Date(row[a].date_days() / 30 * 30);
      }
    }
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset cache = EncodedDataset::Build(t, 8);
  size_t splits = 0;
  for (size_t cls = 0; cls < schema.num_attributes(); ++cls) {
    SCOPED_TRACE(schema.attribute(cls).name);
    ASSERT_TRUE(cache.encoder(cls).has_value());
    std::vector<int> base;
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a != cls) base.push_back(static_cast<int>(a));
      if (const AttributeBins* bins = cache.bins(a)) {
        ASSERT_LE(bins->num_bins, kMaxHistogramBins);
        for (uint32_t d : bins->distinct) ASSERT_EQ(d, 1u);
      }
    }
    const TrainingData td{&cache, static_cast<int>(cls), base};
    C45Config exact_cfg;
    exact_cfg.split_mode = SplitMode::kExact;
    C45Tree exact(exact_cfg);
    ASSERT_TRUE(exact.Train(td).ok());
    C45Tree hist;
    ASSERT_TRUE(hist.Train(td).ok());
    ExpectSameCompiledTrees(exact.compiled(), hist.compiled());
    splits += exact.NodeCount() - exact.LeafCount();
  }
  EXPECT_GT(splits, 150u);  // the comparison must not be vacuous
}

TEST(C45HistogramTest, CoarseBinsStillGrowAUsefulTree) {
  // ~1000 distinct values >> 255 bins: binning is genuinely lossy, the
  // tree must still train and classify the dominant dependency.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("V", 0.0, 1000.0).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"lo", "hi"}).ok());
  Table t(s);
  Rng rng(13);
  for (size_t r = 0; r < 20000; ++r) {
    const double v = static_cast<double>(rng.UniformInt(0, 999));
    Row row(2);
    row[0] = Value::Numeric(v);
    row[1] = Value::Nominal(v <= 499.0 ? 0 : 1);
    t.AppendRowUnchecked(std::move(row));
  }
  const EncodedDataset cache = EncodedDataset::Build(t, 8);
  const TrainingData td{&cache, 1, {0}};
  C45Tree tree;  // histogram mode is the default
  ASSERT_TRUE(tree.Train(td).ok());
  EXPECT_GT(tree.NodeCount(), 1u);
  int correct = 0;
  for (int i = 0; i < 400; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, 999));
    Row probe(2);
    probe[0] = Value::Numeric(v);
    const Prediction p = tree.Predict(probe);
    if (p.PredictedClass() == (v <= 499.0 ? 0 : 1)) ++correct;
  }
  EXPECT_GE(correct, 390);  // the split boundary may land a few values off
}

// --- statistical equivalence on the QUIS surrogate ------------------------

// True when the binary runs under ASan/TSan: the full-scale QUIS audit
// below is a Release-grade statistical check and would dominate sanitizer
// lanes (which cover the same code through the smaller parity tests).
constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

TEST(C45HistogramTest, QuisAuditIsStatisticallyEquivalentToExact) {
  if (kSanitized) {
    GTEST_SKIP() << "full-scale QUIS audit skipped under sanitizers";
  }
  // The benchmark's full configuration (bench_quis_audit): 200k records,
  // seed 2003. At this scale the lossy-binned trees converge with the
  // exact ones; at toy scales (e.g. 20k) individual classifiers can
  // legitimately differ -- a 255-bin GBM tree splits DISPLACEMENT once
  // more than the exact sweep and lands on ~2x fewer high-confidence
  // errors, which is a better model, not an equivalence failure.
  QuisConfig qcfg;
  qcfg.num_records = 200000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());

  auto run = [&](SplitMode mode) {
    AuditorConfig cfg;
    cfg.min_error_confidence = 0.8;
    cfg.num_threads = 1;
    cfg.c45.split_mode = mode;
    Auditor auditor(cfg);
    auto model = auditor.Induce(sample->table);
    EXPECT_TRUE(model.ok());
    auto report = auditor.Audit(*model, sample->table);
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };
  const AuditReport exact = run(SplitMode::kExact);
  const AuditReport hist = run(SplitMode::kHistogram);

  // The planted deviation must rank first under BOTH evaluators.
  auto rank_of = [&](const AuditReport& r) {
    for (size_t i = 0; i < r.suspicious.size(); ++i) {
      if (r.suspicious[i].row == sample->planted_deviation_row) return i + 1;
    }
    return size_t{0};
  };
  EXPECT_EQ(rank_of(exact), 1u);
  EXPECT_EQ(rank_of(hist), 1u);

  // Suspicious-record volume within 1% of the exact evaluator.
  const double ex = static_cast<double>(exact.NumFlagged());
  const double hi = static_cast<double>(hist.NumFlagged());
  EXPECT_GT(ex, 0.0);
  EXPECT_NEAR(hi, ex, 0.01 * ex);
}

}  // namespace
}  // namespace dq
