// Oracle tests for the scoring kernel (audit/scorer.h): on randomized
// tables with nulls in every attribute kind, the compiled-tree walk must
// reproduce C45Tree::Predict + ErrorConfidence bit for bit, and a model
// saved, loaded and checked must report exactly what the in-memory audit
// reports. The audit model keeps only compiled trees, so the oracle trees
// are trained here the way Auditor::Induce trains them.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "audit/error_confidence.h"
#include "audit/review.h"
#include "audit/scorer.h"
#include "common/random.h"
#include "eval/report_io.h"
#include "mining/encoded_dataset.h"
#include "quis/quis_sample.h"
#include "report_rows.h"

namespace dq {
namespace {

Schema MixedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("A", {"a0", "a1", "a2", "a3"}).ok());
  EXPECT_TRUE(s.AddNominal("B", {"b0", "b1", "b2"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddDate("D", 0, 3650).ok());
  EXPECT_TRUE(s.AddNominal("C", {"c0", "c1"}).ok());
  return s;
}

/// B follows A, N follows B, D follows N and C follows A; every cell is
/// null with probability `null_rate` and a few records deviate.
Table MixedTable(size_t rows, double null_rate, uint64_t seed) {
  Table t(MixedSchema());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t a = static_cast<int32_t>(rng.UniformInt(0, 3));
    int32_t b = a % 3;
    if (rng.Bernoulli(0.03)) b = static_cast<int32_t>(rng.UniformInt(0, 2));
    const double n = 30.0 * b + rng.UniformReal(0.0, 10.0);
    const int32_t d = static_cast<int32_t>(n * 30.0) +
                      static_cast<int32_t>(rng.UniformInt(0, 60));
    int32_t c = a < 2 ? 0 : 1;
    if (rng.Bernoulli(0.02)) c = 1 - c;
    Row row{Value::Nominal(a), Value::Nominal(b), Value::Numeric(n),
            Value::Date(d), Value::Nominal(c)};
    for (Value& v : row) {
      if (rng.Bernoulli(null_rate)) v = Value::Null();
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string ReportCsv(const AuditReport& report, const Table& data) {
  std::ostringstream out;
  EXPECT_TRUE(WriteAuditReportCsv(report, data, &out).ok());
  return out.str();
}

/// The pointer trees Auditor::Induce trains for `model` and then drops:
/// the same configuration, encode cache and base attributes. Each one
/// compiles to exactly the tree the model keeps.
std::vector<C45Tree> OracleTrees(const AuditModel& model, const Table& train,
                                 const AuditorConfig& config) {
  const EncodedDataset cache =
      EncodedDataset::Build(train, config.numeric_class_bins);
  C45Config c = config.c45;
  c.min_error_confidence = config.min_error_confidence;
  c.confidence_level = config.confidence_level;
  std::vector<C45Tree> trees;
  for (const AttributeModel& am : model.models()) {
    std::vector<int> base;
    const int num_attrs = static_cast<int>(train.schema().num_attributes());
    for (int a = 0; a < num_attrs; ++a) {
      if (a != am.class_attr) base.push_back(a);
    }
    C45Tree& tree = trees.emplace_back(c);
    EXPECT_TRUE(tree.Train(TrainingData{&cache, am.class_attr, base}).ok());
    AuditModel oracle;
    oracle.AddAttributeModel({am.class_attr, am.encoder, tree.compiled(), {}});
    AuditModel kept;
    kept.AddAttributeModel({am.class_attr, am.encoder, am.tree, {}});
    std::ostringstream oracle_text;
    std::ostringstream kept_text;
    EXPECT_TRUE(oracle.SerializeTo(&oracle_text).ok());
    EXPECT_TRUE(kept.SerializeTo(&kept_text).ok());
    EXPECT_EQ(oracle_text.str(), kept_text.str()) << "attr " << am.class_attr;
  }
  return trees;
}

class ScorerOracleTest : public ::testing::TestWithParam<SplitMode> {};

TEST_P(ScorerOracleTest, KernelMatchesPointerWalkBitForBit) {
  for (uint64_t seed : {3u, 17u, 42u}) {
    const Table train = MixedTable(2500, 0.1, seed);
    const Table data = MixedTable(1500, 0.1, seed + 1000);
    AuditorConfig config;
    config.c45.split_mode = GetParam();
    config.num_threads = 1;
    auto model = Auditor(config).Induce(train);
    ASSERT_TRUE(model.ok()) << model.status();

    const std::vector<C45Tree> trees = OracleTrees(*model, train, config);
    size_t null_paths = 0;
    for (size_t m = 0; m < model->num_models(); ++m) {
      const AttributeModel& am = model->models()[m];
      ASSERT_EQ(am.classifier, nullptr);
      std::set<double> leaf_supports;
      for (uint32_t l = 0; l < am.tree.num_leaves(); ++l) {
        leaf_supports.insert(am.tree.leaf_support(l));
      }
      for (size_t r = 0; r < data.num_rows(); ++r) {
        const Prediction oracle = trees[m].Predict(data.row(r));
        const Prediction kernel = PredictRecord(am, data, r);
        ASSERT_EQ(kernel.distribution.size(), oracle.distribution.size());
        for (size_t c = 0; c < oracle.distribution.size(); ++c) {
          ASSERT_TRUE(SameBits(kernel.distribution[c], oracle.distribution[c]))
              << "seed " << seed << " attr " << am.class_attr << " row " << r
              << " class " << c;
        }
        ASSERT_TRUE(SameBits(kernel.support, oracle.support))
            << "seed " << seed << " attr " << am.class_attr << " row " << r;
        const int observed = am.encoder.Encode(
            data.cell(r, static_cast<size_t>(am.class_attr)));
        for (bool flag_nulls : {true, false}) {
          ASSERT_TRUE(SameBits(
              ErrorConfidence(kernel, observed, 0.95, flag_nulls),
              ErrorConfidence(oracle, observed, 0.95, flag_nulls)));
        }
        // A support that is no single leaf's weight means a null split
        // value spread the record over several leaves.
        null_paths += leaf_supports.count(oracle.support) == 0 ? 1 : 0;
      }
    }
    EXPECT_GT(null_paths, 0u) << "seed " << seed;
  }
}

TEST_P(ScorerOracleTest, AuditMatchesPerRecordOracle) {
  const Table train = MixedTable(2500, 0.1, 5);
  const Table data = MixedTable(2100, 0.1, 6);  // three row blocks
  AuditorConfig config;
  config.c45.split_mode = GetParam();
  config.min_error_confidence = 0.5;
  auto model = Auditor(config).Induce(train);
  ASSERT_TRUE(model.ok()) << model.status();
  auto report = Auditor(config).Audit(*model, data);
  ASSERT_TRUE(report.ok());
  // At min_error_confidence 0 the ranked list holds every record whose
  // Def. 8 confidence is nonzero; a record it leaves out scored 0.
  AuditorConfig all = config;
  all.min_error_confidence = 0.0;
  auto report_all = Auditor(all).Audit(*model, data);
  ASSERT_TRUE(report_all.ok());
  const auto rows = SuspicionsByRow(*report_all, data.num_rows());
  const std::vector<C45Tree> trees = OracleTrees(*model, train, config);

  // Def. 7 per model through the pointer walk, Def. 8 across models.
  size_t flagged = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const Row row = data.row(r);
    double best = 0.0;
    int best_attr = -1;
    double best_support = 0.0;
    Value best_suggestion;
    for (size_t m = 0; m < model->num_models(); ++m) {
      const AttributeModel& am = model->models()[m];
      const Prediction pred = trees[m].Predict(row);
      const double conf =
          ErrorConfidence(pred, am.encoder.Encode(row[am.class_attr]),
                          config.confidence_level, config.flag_null_values);
      if (conf > best) {
        best = conf;
        best_attr = am.class_attr;
        best_support = pred.support;
        best_suggestion = am.encoder.Representative(pred.PredictedClass());
      }
    }
    const Suspicion* listed = rows[r];
    if (listed == nullptr) {
      ASSERT_TRUE(SameBits(best, 0.0)) << "row " << r;
      ASSERT_EQ(best_attr, -1) << "row " << r;
    } else {
      ASSERT_TRUE(SameBits(listed->error_confidence, best)) << "row " << r;
      ASSERT_EQ(listed->attr, best_attr) << "row " << r;
      ASSERT_TRUE(SameBits(listed->support, best_support)) << "row " << r;
      ASSERT_TRUE(listed->suggestion.StrictEquals(best_suggestion))
          << "row " << r;
      ASSERT_TRUE(listed->observed.StrictEquals(
          row[static_cast<size_t>(best_attr)]))
          << "row " << r;
    }
    flagged += best >= config.min_error_confidence && best_attr >= 0 ? 1 : 0;
    ASSERT_EQ(report->IsFlagged(r),
              best >= config.min_error_confidence && best_attr >= 0)
        << "row " << r;
  }
  EXPECT_EQ(report->NumFlagged(), flagged);
  EXPECT_GT(flagged, 0u);
}

TEST_P(ScorerOracleTest, SavedModelChecksLikeTheAudit) {
  const Table train = MixedTable(3000, 0.1, 8);
  const Table data = MixedTable(2600, 0.1, 9);
  AuditorConfig config;
  config.c45.split_mode = GetParam();
  config.num_threads = 1;
  auto model = Auditor(config).Induce(train);
  ASSERT_TRUE(model.ok()) << model.status();

  std::stringstream saved;
  ASSERT_TRUE(model->SerializeTo(&saved).ok());
  auto loaded = AuditModel::Deserialize(data.schema(), &saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  for (int threads : {1, 3, 8}) {
    config.num_threads = threads;
    auto audited = Auditor(config).Audit(*model, data);
    auto checked = loaded->Check(data, config);
    ASSERT_TRUE(audited.ok());
    ASSERT_TRUE(checked.ok());
    ASSERT_GT(audited->NumFlagged(), 0u);
    EXPECT_EQ(ReportCsv(*checked, data), ReportCsv(*audited, data))
        << "threads " << threads;
    // Every record's score, not only the flagged ones.
    AuditorConfig all = config;
    all.min_error_confidence = 0.0;
    auto audited_all = Auditor(all).Audit(*model, data);
    auto checked_all = loaded->Check(data, all);
    ASSERT_TRUE(audited_all.ok());
    ASSERT_TRUE(checked_all.ok());
    ExpectSameSuspicions(*checked_all, *audited_all);
  }
}

INSTANTIATE_TEST_SUITE_P(SplitModes, ScorerOracleTest,
                         ::testing::Values(SplitMode::kHistogram,
                                           SplitMode::kExact),
                         [](const ::testing::TestParamInfo<SplitMode>& p) {
                           return std::string(SplitModeToString(p.param));
                         });

TEST(ScorerTest, RejectsTableOfAnotherSchema) {
  const Table train = MixedTable(800, 0.0, 1);
  auto model = Auditor().Induce(train);
  ASSERT_TRUE(model.ok());
  std::stringstream saved;
  ASSERT_TRUE(model->SerializeTo(&saved).ok());
  auto loaded = AuditModel::Deserialize(train.schema(), &saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Schema other;
  ASSERT_TRUE(other.AddNumeric("A", 0.0, 1.0).ok());
  Table t(other);
  ASSERT_TRUE(t.AppendRow({Value::Numeric(0.5)}).ok());
  EXPECT_FALSE(loaded->Check(t, AuditorConfig()).ok());
  EXPECT_FALSE(Auditor().Audit(*model, t).ok());
}

TEST(ScorerTest, RejectsTreeWithFewerClassesThanItsEncoder) {
  // The Def. 7 table is indexed by the encoder's class codes, so a tree
  // with fewer classes would read past its leaf rows.
  const Table data = MixedTable(300, 0.1, 2);
  auto model = Auditor().Induce(data);
  ASSERT_TRUE(model.ok()) << model.status();
  const AttributeModel& am = model->models().front();
  const int width = am.encoder.num_classes() - 1;
  ASSERT_GT(width, 0);
  CompiledTree::Node leaf;
  leaf.weight = 10.0;
  std::vector<double> counts(static_cast<size_t>(width), 0.0);
  counts[0] = 10.0;
  AuditModel narrow;
  narrow.AddAttributeModel(
      {am.class_attr, am.encoder, CompiledTree(width, {leaf}, counts), {}});
  const auto scored = narrow.Check(data, AuditorConfig());
  ASSERT_FALSE(scored.ok());
  EXPECT_TRUE(scored.status().IsInvalidArgument()) << scored.status();
}

/// A compiled tree of one nominal split over `leaves` leaves with random
/// class counts: some leaves empty, many classes at zero count, weights
/// fractional as C4.5's null spreading leaves them.
CompiledTree RandomLeafTree(int num_classes, uint32_t leaves, Rng* rng) {
  std::vector<CompiledTree::Node> nodes(1 + leaves);
  nodes[0].attr = 0;
  nodes[0].first = 1;
  nodes[0].children = leaves;
  std::vector<double> counts;
  for (uint32_t l = 0; l < leaves; ++l) {
    CompiledTree::Node& leaf = nodes[1 + l];
    leaf.first = l;
    leaf.majority = static_cast<int32_t>(rng->UniformInt(0, num_classes - 1));
    const bool empty = rng->Bernoulli(0.15);
    for (int c = 0; c < num_classes; ++c) {
      double count = 0.0;
      if (!empty && !rng->Bernoulli(0.4)) {
        count = rng->Bernoulli(0.5)
                    ? static_cast<double>(rng->UniformInt(1, 500))
                    : rng->UniformReal(0.01, 60.0);
      }
      counts.push_back(count);
      leaf.weight += count;
    }
    leaf.branch_weight = leaf.weight;
    nodes[0].known_weight += leaf.weight;
  }
  return CompiledTree(num_classes, std::move(nodes), std::move(counts));
}

TEST(ScorerTest, LeafTableMatchesErrorConfidence) {
  Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const int width = static_cast<int>(rng.UniformInt(1, 8));
    const CompiledTree tree = RandomLeafTree(
        width, static_cast<uint32_t>(rng.UniformInt(1, 40)), &rng);
    const size_t stride = static_cast<size_t>(width) + 1;
    for (double level : {0.8, 0.95, 0.99}) {
      for (bool flag_nulls : {true, false}) {
        const std::vector<double> table =
            LeafErrorConfidences(tree, level, flag_nulls);
        ASSERT_EQ(table.size(), tree.num_leaves() * stride);
        for (uint32_t l = 0; l < tree.num_leaves(); ++l) {
          for (int observed = -1; observed < width; ++observed) {
            EXPECT_EQ(table[l * stride + static_cast<size_t>(observed + 1)],
                      ErrorConfidence(tree.leaf_distribution(l),
                                      static_cast<size_t>(width),
                                      tree.leaf_class(l), tree.leaf_support(l),
                                      observed, level, flag_nulls))
                << "trial " << trial << " leaf " << l << " observed "
                << observed << " level " << level << " nulls " << flag_nulls;
          }
        }
      }
    }
  }
}

TEST(ScorerTest, QuisFlagsMatchExplainRecordBitForBit) {
  // The sec. 6.2 surrogate at 20k records (bench_quis_audit --quick): each
  // flagged record's ranked confidence is the Def. 8 maximum its review
  // sheet computes one model at a time, without the Def. 7 table.
  QuisConfig qcfg;
  qcfg.num_records = 20000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());
  AuditorConfig config;
  config.min_error_confidence = 0.8;
  const Auditor auditor(config);
  auto model = auditor.Induce(sample->table);
  ASSERT_TRUE(model.ok()) << model.status();
  auto report = auditor.Audit(*model, sample->table);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->NumFlagged(), 0u);
  for (const Suspicion& s : report->suspicious) {
    auto detail = ExplainRecord(*model, sample->table, s.row, config);
    ASSERT_TRUE(detail.ok());
    ASSERT_TRUE(SameBits(detail->combined_confidence, s.error_confidence))
        << "row " << s.row;
    const auto winner = std::find_if(
        detail->dissenting.begin(), detail->dissenting.end(),
        [&](const ClassifierOpinion& o) { return o.class_attr == s.attr; });
    ASSERT_NE(winner, detail->dissenting.end()) << "row " << s.row;
    EXPECT_TRUE(SameBits(winner->error_confidence, s.error_confidence))
        << "row " << s.row;
  }
}

// ---------------------------------------------------------------------------
// The lane kernel's edges: block sizes around the lane and block widths,
// nominal splits wider than a byte or narrower than their dictionary,
// thresholds at the ends of the double range and at values in the data,
// and nulls in every kind of split attribute. Trained trees are held
// against C45Tree::Predict; hand-built trees against the per-row walk the
// kernel replaced, copied below, which reads every split value straight
// from the table.

/// The child a known split value leads to, for one row.
uint32_t ScalarChildFor(const CompiledTree::Node& node, const Table& data,
                        size_t row) {
  const size_t attr = static_cast<size_t>(node.attr);
  if (node.ordered) {
    return node.first + (data.ordered_at(row, attr) <= node.threshold ? 0 : 1);
  }
  const int32_t code = data.code_at(row, attr);
  if (code < 0 || static_cast<uint32_t>(code) >= node.children) {
    return node.first;
  }
  return node.first + static_cast<uint32_t>(code);
}

/// Follows known split values from the root; stops at a leaf or at the
/// first split whose value is null.
uint32_t ScalarDescend(const CompiledTree& tree, const Table& data,
                       size_t row) {
  const std::vector<CompiledTree::Node>& nodes = tree.nodes();
  uint32_t index = 0;
  for (;;) {
    const CompiledTree::Node& node = nodes[index];
    if (node.is_leaf() || data.is_null(row, static_cast<size_t>(node.attr))) {
      return index;
    }
    index = ScalarChildFor(node, data, row);
  }
}

/// C4.5's missing-value walk from `index`, carrying `weight`.
void ScalarAccumulate(const CompiledTree& tree, uint32_t index,
                      const Table& data, size_t row, double weight,
                      double* dist, double* support) {
  const std::vector<CompiledTree::Node>& nodes = tree.nodes();
  for (;;) {
    const CompiledTree::Node& node = nodes[index];
    if (node.is_leaf()) {
      tree.AccumulateLeaf(node, weight, dist, support);
      return;
    }
    if (!data.is_null(row, static_cast<size_t>(node.attr))) {
      index = ScalarChildFor(node, data, row);
      continue;
    }
    if (node.known_weight <= kTreeWeightEpsilon) {
      index = node.first;
      continue;
    }
    for (uint32_t b = 0; b < node.children; ++b) {
      const CompiledTree::Node& child = nodes[node.first + b];
      if (child.branch_weight <= kTreeWeightEpsilon) continue;
      ScalarAccumulate(tree, node.first + b, data, row,
                       weight * child.branch_weight / node.known_weight, dist,
                       support);
    }
    return;
  }
}

/// The per-row walk's prediction for one record.
Prediction ScalarPredict(const CompiledTree& tree, const Table& data,
                         size_t row) {
  const size_t width = static_cast<size_t>(tree.num_classes());
  Prediction out;
  const uint32_t stop = ScalarDescend(tree, data, row);
  const CompiledTree::Node& node = tree.nodes()[stop];
  if (node.is_leaf()) {
    const double* dist = tree.leaf_distribution(node.first);
    out.distribution.assign(dist, dist + width);
    out.support = tree.leaf_support(node.first);
    return out;
  }
  out.distribution.assign(width, 0.0);
  ScalarAccumulate(tree, stop, data, row, 1.0, out.distribution.data(),
                   &out.support);
  tree.Normalize(out.distribution.data());
  return out;
}

using Oracle = std::function<Prediction(size_t model, size_t row)>;

/// Holds the kernel against `oracle` on every record of `data`: each
/// tree's stop nodes against the per-row walk, each prediction and Def. 7
/// value bitwise, and each record's Def. 8 maximum in a check at one and
/// three threads. Returns how many records a null split value stopped
/// before a leaf, over all trees.
size_t ExpectKernelMatchesOracle(const AuditModel& model, const Table& data,
                                 const Oracle& oracle) {
  const size_t n = data.num_rows();
  size_t null_stops = 0;
  for (size_t m = 0; m < model.num_models(); ++m) {
    const AttributeModel& am = model.models()[m];
    const std::vector<uint32_t> stops = StopNodes(am.tree, data, 0, n);
    EXPECT_EQ(stops.size(), n);
    for (size_t r = 0; r < n && r < stops.size(); ++r) {
      EXPECT_EQ(stops[r], ScalarDescend(am.tree, data, r))
          << "model " << m << " row " << r << " of " << n;
      null_stops += am.tree.nodes()[stops[r]].is_leaf() ? 0 : 1;
      const Prediction want = oracle(m, r);
      const Prediction got = PredictRecord(am, data, r);
      EXPECT_EQ(got.distribution.size(), want.distribution.size());
      for (size_t c = 0; c < want.distribution.size() &&
                         c < got.distribution.size();
           ++c) {
        EXPECT_TRUE(SameBits(got.distribution[c], want.distribution[c]))
            << "model " << m << " row " << r << " class " << c;
      }
      EXPECT_TRUE(SameBits(got.support, want.support))
          << "model " << m << " row " << r;
      const int observed =
          am.encoder.Encode(data.cell(r, static_cast<size_t>(am.class_attr)));
      for (bool flag_nulls : {true, false}) {
        EXPECT_TRUE(
            SameBits(ErrorConfidence(got, observed, 0.95, flag_nulls),
                     ErrorConfidence(want, observed, 0.95, flag_nulls)))
            << "model " << m << " row " << r;
      }
    }
  }
  AuditorConfig config;
  config.min_error_confidence = 0.0;
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    auto report = model.Check(data, config);
    EXPECT_TRUE(report.ok()) << report.status();
    if (!report.ok()) return null_stops;
    const auto rows = SuspicionsByRow(*report, n);
    for (size_t r = 0; r < n; ++r) {
      double best = 0.0;
      int best_attr = -1;
      double best_support = 0.0;
      for (size_t m = 0; m < model.num_models(); ++m) {
        const AttributeModel& am = model.models()[m];
        const Prediction pred = oracle(m, r);
        const double conf = ErrorConfidence(
            pred,
            am.encoder.Encode(
                data.cell(r, static_cast<size_t>(am.class_attr))),
            config.confidence_level, config.flag_null_values);
        if (conf > best) {
          best = conf;
          best_attr = am.class_attr;
          best_support = pred.support;
        }
      }
      const Suspicion* listed = rows[r];
      if (listed == nullptr) {
        EXPECT_TRUE(SameBits(best, 0.0)) << "row " << r << " of " << n;
        continue;
      }
      EXPECT_TRUE(SameBits(listed->error_confidence, best))
          << "row " << r << " of " << n << " threads " << threads;
      EXPECT_EQ(listed->attr, best_attr) << "row " << r;
      EXPECT_TRUE(SameBits(listed->support, best_support)) << "row " << r;
    }
  }
  return null_stops;
}

TEST(ScorerTest, LanesMatchTheTreeAtEveryBlockSize) {
  // One row, less than a lane group, just past one, and one row short of,
  // just past and just past two 1024-row blocks.
  for (SplitMode mode : {SplitMode::kHistogram, SplitMode::kExact}) {
    const Table train = MixedTable(2500, 0.1, 11);
    AuditorConfig config;
    config.c45.split_mode = mode;
    config.num_threads = 1;
    auto model = Auditor(config).Induce(train);
    ASSERT_TRUE(model.ok()) << model.status();
    const std::vector<C45Tree> trees = OracleTrees(*model, train, config);
    size_t null_stops = 0;
    for (size_t n : {1, 7, 9, 1023, 1025, 2049}) {
      SCOPED_TRACE(std::string(SplitModeToString(mode)) + ", " +
                   std::to_string(n) + " rows");
      const Table data = MixedTable(n, 0.1, 500 + n);
      null_stops += ExpectKernelMatchesOracle(
          *model, data,
          [&](size_t m, size_t r) { return trees[m].Predict(data.row(r)); });
    }
    EXPECT_GT(null_stops, 0u);
  }
}

/// A wide nominal attribute's schema, after c45_histogram_test's
/// WideNominalTable: W has 1100 categories and the class follows it.
Schema WideSchema() {
  std::vector<std::string> categories;
  for (int32_t w = 0; w < 1100; ++w) {
    categories.push_back("w" + std::to_string(w));
  }
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", categories).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// Rows whose W is any category (`spread`) or only the first and last,
/// with every cell null at `null_rate`.
Table WideTable(size_t rows, bool spread, double null_rate, uint64_t seed) {
  Table t(WideSchema());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    int32_t w = rng.Bernoulli(0.5) ? 1099 : 0;
    if (spread) w = static_cast<int32_t>(rng.UniformInt(0, 1099));
    int32_t cls = w == 0 ? 0 : w == 1099 ? 1 : w % 3;
    if (rng.Bernoulli(0.03)) cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row{Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2))),
            Value::Nominal(w),
            Value::Numeric(static_cast<double>(rng.UniformInt(0, 100))),
            Value::Nominal(cls)};
    for (Value& v : row) {
      if (rng.Bernoulli(null_rate)) v = Value::Null();
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

/// A hand-built AuditModel auditing `class_attr` (nominal) with `tree`.
AuditModel HandModel(const Schema& schema, int class_attr, CompiledTree tree) {
  auto encoder = ClassEncoder::FromParts(schema, class_attr, std::nullopt);
  EXPECT_TRUE(encoder.ok()) << encoder.status();
  AuditModel model;
  model.AddAttributeModel({class_attr, *encoder, std::move(tree), {}});
  return model;
}

/// Class counts for a leaf: about `weight` records, mostly of class
/// `major`; none when `weight` is 0.
std::vector<double> LeafCounts(int major, double weight, Rng* rng) {
  std::vector<double> counts(3, 0.0);
  if (weight <= 0.0) return counts;
  counts[static_cast<size_t>(major)] = weight;
  counts[static_cast<size_t>((major + 1) % 3)] = rng->UniformReal(0.0, 3.0);
  return counts;
}

TEST(ScorerTest, NominalSplitsWiderThanAByteTakeEveryChild) {
  // Trained: the root splits W into its 1100 categories, of which training
  // saw two; the checked rows take every category.
  {
    const Table train = WideTable(3000, false, 0.0, 3);
    AuditorConfig config;
    config.num_threads = 1;
    config.skip_class_attrs = {0, 1, 2};
    auto model = Auditor(config).Induce(train);
    ASSERT_TRUE(model.ok()) << model.status();
    ASSERT_EQ(model->num_models(), 1u);
    const CompiledTree::Node& root = model->models()[0].tree.nodes()[0];
    ASSERT_EQ(root.attr, 1);
    ASSERT_EQ(root.children, 1100u);
    const std::vector<C45Tree> trees = OracleTrees(*model, train, config);
    const Table data = WideTable(2100, true, 0.1, 4);
    EXPECT_GT(ExpectKernelMatchesOracle(
                  *model, data,
                  [&](size_t m, size_t r) {
                    return trees[m].Predict(data.row(r));
                  }),
              0u);
  }
  // Hand-built: every category has a leaf of its own, so a lane that took
  // the wrong child would stop at another node.
  {
    const Schema schema = WideSchema();
    Rng rng(5);
    std::vector<CompiledTree::Node> nodes(1 + 1100);
    nodes[0].attr = 1;
    nodes[0].first = 1;
    nodes[0].children = 1100;
    std::vector<double> counts;
    for (uint32_t c = 0; c < 1100; ++c) {
      CompiledTree::Node& leaf = nodes[1 + c];
      leaf.first = c;
      leaf.majority = static_cast<int32_t>(c % 3);
      const double weight = c % 7 == 0 ? 0.0 : 5.0 + c % 11;
      const std::vector<double> leaf_counts =
          LeafCounts(leaf.majority, weight, &rng);
      for (double count : leaf_counts) leaf.weight += count;
      leaf.branch_weight = leaf.weight;
      nodes[0].known_weight += leaf.weight;
      counts.insert(counts.end(), leaf_counts.begin(), leaf_counts.end());
    }
    const AuditModel model = HandModel(
        schema, 3, CompiledTree(3, std::move(nodes), std::move(counts)));
    const Table data = WideTable(1500, true, 0.1, 6);
    EXPECT_GT(ExpectKernelMatchesOracle(model, data,
                                        [&](size_t m, size_t r) {
                                          return ScalarPredict(
                                              model.models()[m].tree, data,
                                              r);
                                        }),
              0u);
  }
}

/// N (5 categories), X (numeric over the whole double range), D (date) and
/// the class C.
Schema EdgeSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("N", {"n0", "n1", "n2", "n3", "n4"}).ok());
  EXPECT_TRUE(s.AddNumeric("X", -DBL_MAX, DBL_MAX).ok());
  EXPECT_TRUE(s.AddDate("D", 0, 3650).ok());
  EXPECT_TRUE(s.AddNominal("C", {"c0", "c1", "c2"}).ok());
  return s;
}

/// X values at the ends of the double range, at both zeros and at the
/// finite thresholds below; D values at and around day 100.
Table EdgeTable(size_t rows, uint64_t seed) {
  const std::vector<double> xs = {-DBL_MAX, -17.25, -0.0, 0.0,
                                  17.25,    DBL_MAX, 1e300, -1e-300};
  const std::vector<int32_t> ds = {0, 99, 100, 101, 3650};
  Table t(EdgeSchema());
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double x =
        rng.Bernoulli(0.8)
            ? xs[static_cast<size_t>(rng.UniformInt(0, 7))]
            : rng.UniformReal(-100.0, 100.0);
    const int32_t d =
        rng.Bernoulli(0.8) ? ds[static_cast<size_t>(rng.UniformInt(0, 4))]
                           : static_cast<int32_t>(rng.UniformInt(0, 3650));
    Row row{Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 4))),
            Value::Numeric(x), Value::Date(d),
            Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)))};
    for (Value& v : row) {
      if (rng.Bernoulli(0.15)) v = Value::Null();
    }
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

/// Root: a nominal split on N with 3 children, fewer than N's 5
/// categories. Child c splits X (c even) or D (c odd) at thresholds[c],
/// into two leaves. The second split sent no known weight down, so a null
/// there takes its first child.
CompiledTree EdgeTree(const std::vector<double>& thresholds, Rng* rng) {
  constexpr uint32_t kChildren = 3;
  std::vector<CompiledTree::Node> nodes(1 + kChildren + 2 * kChildren);
  std::vector<double> counts;
  CompiledTree::Node& root = nodes[0];
  root.attr = 0;
  root.first = 1;
  root.children = kChildren;
  for (uint32_t c = 0; c < kChildren; ++c) {
    CompiledTree::Node& split = nodes[1 + c];
    split.attr = c % 2 == 0 ? 1 : 2;
    split.ordered = true;
    split.threshold = thresholds[c];
    split.first = 1 + kChildren + 2 * c;
    split.children = 2;
    for (uint32_t b = 0; b < 2; ++b) {
      CompiledTree::Node& leaf = nodes[split.first + b];
      leaf.first = 2 * c + b;
      leaf.majority = static_cast<int32_t>((c + b) % 3);
      const double weight = c == 1 ? 0.0 : 10.0 + 7.0 * b + c;
      const std::vector<double> leaf_counts =
          LeafCounts(leaf.majority, weight, rng);
      for (double count : leaf_counts) leaf.weight += count;
      leaf.branch_weight = leaf.weight;
      split.known_weight += leaf.weight;
      counts.insert(counts.end(), leaf_counts.begin(), leaf_counts.end());
    }
    split.branch_weight = split.known_weight;
    root.known_weight += split.known_weight;
  }
  return CompiledTree(3, std::move(nodes), std::move(counts));
}

TEST(ScorerTest, EdgeThresholdsNarrowSplitsAndNullsMatchTheScalarWalk) {
  // Every threshold meets an X split and a D split in some tree; N codes 3
  // and 4 lie past the root's children and take its first child; N, X and
  // D are each null in 15% of the rows.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> thresholds = {inf,  -inf, DBL_MAX, -DBL_MAX,
                                          0.0,  -0.0, 17.25,   -17.25,
                                          99.5, 100.0};
  const Schema schema = EdgeSchema();
  const Table data = EdgeTable(1100, 12);
  Rng rng(13);
  size_t null_stops = 0;
  for (size_t t = 0; t < thresholds.size(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    const std::vector<double> picked = {
        thresholds[t], thresholds[(t + 1) % thresholds.size()],
        thresholds[(t + 2) % thresholds.size()]};
    const AuditModel model = HandModel(schema, 3, EdgeTree(picked, &rng));
    null_stops += ExpectKernelMatchesOracle(
        model, data, [&](size_t m, size_t r) {
          return ScalarPredict(model.models()[m].tree, data, r);
        });
  }
  EXPECT_GT(null_stops, 0u);
  // The rows reach every kind of stop: codes past the root's children,
  // and nulls in each split attribute.
  size_t past_children = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    past_children += !data.is_null(r, 0) && data.code_at(r, 0) >= 3 ? 1 : 0;
  }
  EXPECT_GT(past_children, 0u);
}

}  // namespace
}  // namespace dq
