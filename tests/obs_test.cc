// Tests for the observability layer (src/obs): JSON building blocks and
// validator, run manifests, the metrics registry (including the per-tree
// build-time histogram of an induction), the hierarchical tracer
// (including span-tree determinism across thread counts and concurrent
// recording through the thread pool), and the BENCH_*.json emitter.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "common/parallel.h"
#include "common/random.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dq::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonTest, EscapeEdgeCasesStayWellFormedAndRoundTrip) {
  // Strings that really occur in history records: rule names with
  // quotes/backslashes, Windows-style file paths, UTF-8 multibyte text
  // and embedded control characters. Every one must render to valid JSON
  // and decode back to the original bytes.
  const std::string cases[] = {
      "rule \"A\" -> B",                    // embedded quotes
      "C:\\data\\table.csv",                // backslash path
      "naïve — ü (日本語)",                  // UTF-8 multibyte, untouched
      std::string("a\x00z", 3),             // embedded NUL
      "\x1f\x7f",                            // boundary control chars
      "line1\r\nline2\ttab\ffeed\bback",    // short escapes
      "trailing backslash\\",
      "",                                    // empty string
  };
  for (const std::string& original : cases) {
    const std::string rendered = "\"" + JsonEscape(original) + "\"";
    std::string error;
    ASSERT_TRUE(ValidateJson(rendered, &error)) << error << "\n" << rendered;
    JsonValue decoded;
    ASSERT_TRUE(ParseJson(rendered, &decoded, &error)) << error;
    EXPECT_EQ(decoded.AsString(), original);
  }
}

TEST(JsonTest, EscapeControlCharsUseUnicodeEscapes) {
  EXPECT_EQ(JsonEscape(std::string_view("\x00", 1)), "\\u0000");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  // 0x7f (DEL) is not a JSON control character; it passes through.
  // Multibyte UTF-8 must never be split or escaped byte-wise.
  EXPECT_EQ(JsonEscape("é"), "é");
  EXPECT_EQ(JsonEscape("😀"), "😀");
}

TEST(JsonTest, DoubleRendersFiniteAndSanitizesNonFinite) {
  EXPECT_TRUE(ValidateJson(JsonDouble(1.5)));
  EXPECT_TRUE(ValidateJson(JsonDouble(-0.25)));
  // JSON cannot represent NaN/inf; the emitter must stay well-formed.
  EXPECT_TRUE(ValidateJson(JsonDouble(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(ValidateJson(JsonDouble(std::numeric_limits<double>::infinity())));
}

TEST(JsonTest, ObjectWriterRendersValidJsonBothStyles) {
  JsonObjectWriter w;
  w.Add("name", "qu\"oted");
  w.Add("count", static_cast<uint64_t>(42));
  w.Add("ratio", 0.5);
  w.Add("ok", true);
  JsonObjectWriter nested;
  nested.Add("inner", 1);
  w.AddRaw("child", nested.Render(0));
  for (int indent : {0, 2}) {
    std::string out = w.Render(indent);
    std::string error;
    EXPECT_TRUE(ValidateJson(out, &error)) << error << "\n" << out;
  }
}

TEST(JsonTest, ValidatorAcceptsWellFormedDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-1.5e3", "\"s\"",
        R"({"a": [1, 2.5, {"b": null}], "c": "é\n"})"}) {
    std::string error;
    EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonTest, ValidatorRejectsMalformedDocuments) {
  for (const char* doc :
       {"", "{", "{]", "{\"a\":}", "[1,]", "{\"a\" 1}", "nul", "01",
        "\"unterminated", "{} trailing", "{\"a\":1,}", "+1"}) {
    std::string error;
    EXPECT_FALSE(ValidateJson(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

// ---------------------------------------------------------------------------
// Manifest

TEST(ManifestTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ManifestTest, HashHexIsFixedWidthLowercase) {
  EXPECT_EQ(HashHex(0), "0000000000000000");
  EXPECT_EQ(HashHex(0xABCDEF0123456789ULL), "abcdef0123456789");
}

TEST(ManifestTest, MakeRunManifestHashesTheCommandLine) {
  const char* argv_a[] = {"dqaudit", "--threads", "2"};
  const char* argv_b[] = {"dqaudit", "--threads", "4"};
  RunManifest a = MakeRunManifest("dqaudit", 3, argv_a);
  RunManifest b = MakeRunManifest("dqaudit", 3, argv_b);
  EXPECT_EQ(a.tool, "dqaudit");
  EXPECT_FALSE(a.build_type.empty());
  EXPECT_EQ(a.config_hash.size(), 16u);
  EXPECT_NE(a.config_hash, b.config_hash);
  // Same argv -> same hash: the manifest is reproducible.
  RunManifest a2 = MakeRunManifest("dqaudit", 3, argv_a);
  EXPECT_EQ(a.config_hash, a2.config_hash);
}

TEST(ManifestTest, AddInputFileHashRecordsContentHash) {
  const std::string path = ::testing::TempDir() + "/obs_manifest_input.txt";
  {
    std::ofstream out(path);
    out << "BRV,GBM\n404,901\n";
  }
  RunManifest m;
  ASSERT_TRUE(AddInputFileHash(&m, "data", path).ok());
  ASSERT_EQ(m.input_hashes.size(), 1u);
  EXPECT_EQ(m.input_hashes[0].first, "data");
  EXPECT_EQ(m.input_hashes[0].second, HashHex(Fnv1a64("BRV,GBM\n404,901\n")));
  std::remove(path.c_str());

  Status missing = AddInputFileHash(&m, "gone", path + ".does-not-exist");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(m.input_hashes.size(), 1u);  // failed hash leaves it unchanged
}

TEST(ManifestTest, ToJsonIsValidAndCarriesSchemaVersion) {
  const char* argv[] = {"dqgen", "--seed", "7"};
  RunManifest m = MakeRunManifest("dqgen", 3, argv);
  m.seed = 7;
  m.threads_requested = 2;
  m.threads_used = 2;
  m.input_hashes.emplace_back("schema", HashHex(Fnv1a64("s")));
  std::string json = m.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterGaugeBasics) {
  Counter* c = GetCounter("test.obs.counter");
  c->Reset();
  c->Add();
  c->Add(9);
  EXPECT_EQ(c->Value(), 10u);
  // Same name -> same object.
  EXPECT_EQ(GetCounter("test.obs.counter"), c);

  Gauge* g = GetGauge("test.obs.gauge");
  g->Set(1.5);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  Histogram* h = GetHistogram("test.obs.histogram", {1.0, 10.0});
  h->Reset();
  h->Observe(0.5);   // bucket <= 1
  h->Observe(5.0);   // bucket <= 10
  h->Observe(7.0);   // bucket <= 10
  h->Observe(100.0); // overflow bucket
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 112.5);
  ASSERT_EQ(h->NumBuckets(), 3u);
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 2u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  // Re-registration with different bounds keeps the first registration.
  EXPECT_EQ(GetHistogram("test.obs.histogram", {99.0}), h);
  EXPECT_EQ(h->bounds().size(), 2u);
}

TEST(MetricsTest, CounterUpdatesAreThreadSafe) {
  Counter* c = GetCounter("test.obs.concurrent_counter");
  c->Reset();
  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 1000;
  ParallelFor(4, kTasks, [&](size_t) {
    for (uint64_t i = 0; i < kPerTask; ++i) c->Add();
  });
  EXPECT_EQ(c->Value(), kTasks * kPerTask);
}

TEST(MetricsTest, ToJsonIsValidAndDeterministic) {
  GetCounter("test.obs.counter")->Add(0);
  GetGauge("test.obs.gauge")->Set(1.0);
  GetHistogram("test.obs.histogram", {1.0, 10.0});
  const std::string a = MetricsRegistry::Global().ToJson();
  const std::string b = MetricsRegistry::Global().ToJson();
  EXPECT_EQ(a, b);
  std::string error;
  ASSERT_TRUE(ValidateJson(a, &error)) << error << "\n" << a;
  EXPECT_NE(a.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(a.find("test.obs.counter"), std::string::npos);
  EXPECT_NE(a.find("test.obs.histogram"), std::string::npos);

  RunManifest m;
  m.tool = "obs_test";
  const std::string with_manifest = MetricsRegistry::Global().ToJson(&m);
  ASSERT_TRUE(ValidateJson(with_manifest, &error)) << error;
  EXPECT_NE(with_manifest.find("\"manifest\""), std::string::npos);
}

TEST(MetricsTest, SyncPoolMetricsPublishesPoolGauges) {
  ParallelFor(2, 8, [](size_t) {});
  SyncPoolMetrics();
  EXPECT_GE(GetGauge("pool.pools_created")->Value(), 1.0);
  EXPECT_GE(GetGauge("pool.tasks_executed")->Value(), 1.0);
}

/// Count of the c45.tree_build_ms histogram in a metrics dump (0 before
/// the first tree registers it); also checks what validate_metrics.py
/// checks of it, that its buckets add up to that count.
uint64_t TreeBuildCount(const std::string& dump) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(dump, &doc, &error)) << error;
  const JsonValue* histograms = doc.Find("histograms");
  if (histograms == nullptr) return 0;
  const JsonValue* h = histograms->Find("c45.tree_build_ms");
  if (h == nullptr) return 0;
  uint64_t buckets = 0;
  for (const JsonValue& bucket : h->Find("buckets")->items) {
    EXPECT_NE(bucket.Find("le"), nullptr);
    buckets += bucket.Find("count")->AsUint64();
  }
  EXPECT_EQ(buckets, h->Find("count")->AsUint64());
  return h->Find("count")->AsUint64();
}

TEST(MetricsTest, TreeBuildHistogramCountsEveryC45Tree) {
  // Four attributes with dependencies to learn, induced on two threads:
  // one C4.5 tree per attribute, each timed into the histogram.
  Schema schema;
  ASSERT_TRUE(schema.AddNominal("A", {"a0", "a1", "a2"}).ok());
  ASSERT_TRUE(schema.AddNumeric("X", 0.0, 40.0).ok());
  ASSERT_TRUE(schema.AddNominal("B", {"b0", "b1"}).ok());
  ASSERT_TRUE(schema.AddNumeric("Y", 0.0, 10.0).ok());
  Table table(schema);
  Rng rng(17);
  for (size_t r = 0; r < 600; ++r) {
    const int32_t a = static_cast<int32_t>(rng.UniformInt(0, 2));
    const double x = a * 10.0 + rng.UniformReal(0.0, 10.0);
    Row row(4);
    row[0] = Value::Nominal(a);
    row[1] = Value::Numeric(x);
    row[2] = Value::Nominal(x > 15.0 ? 1 : 0);
    if (!rng.Bernoulli(0.1)) row[3] = Value::Numeric(rng.UniformReal(0, 10));
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  const uint64_t before = TreeBuildCount(MetricsRegistry::Global().ToJson());
  AuditorConfig config;
  config.num_threads = 2;
  auto model = Auditor(config).Induce(table);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->num_models(), schema.num_attributes());
  EXPECT_EQ(TreeBuildCount(MetricsRegistry::Global().ToJson()) - before,
            model->num_models());
}

// ---------------------------------------------------------------------------
// Tracer

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Reset();
    Tracer::Global().SetEnabled(true);
  }
  void TearDown() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Reset();
  }
};

TEST_F(TracerTest, DisabledTracerRecordsNothingButStillMeasures) {
  Tracer::Global().SetEnabled(false);
  double sink = 0.0;
  {
    Span span("test.disabled", -1, &sink);
  }
  EXPECT_EQ(Tracer::Global().NumSpans(), 0u);
  EXPECT_GT(sink, 0.0);  // measurement is unconditional
}

TEST_F(TracerTest, SpansNestAndAggregate) {
  double outer_ms = 0.0;
  {
    Span outer("test.outer", -1, &outer_ms);
    { Span inner("test.inner", 0); }
    { Span inner("test.inner", 1); }
  }
  EXPECT_EQ(Tracer::Global().NumSpans(), 3u);
  EXPECT_GT(outer_ms, 0.0);
  EXPECT_GT(Tracer::Global().AggregateMs("test.inner"), 0.0);
  EXPECT_EQ(Tracer::Global().AggregateMs("test.absent"), 0.0);

  const std::string tree = Tracer::Global().TreeSummary();
  EXPECT_NE(tree.find("test.outer"), std::string::npos);
  EXPECT_NE(tree.find("test.inner"), std::string::npos);
}

TEST_F(TracerTest, ResetDropsRecordedSpans) {
  { Span span("test.reset"); }
  EXPECT_EQ(Tracer::Global().NumSpans(), 1u);
  Tracer::Global().Reset();
  EXPECT_EQ(Tracer::Global().NumSpans(), 0u);
}

// Records the same span structure through the pool at a given thread count
// and returns the stitched tree rendering.
std::string RecordTree(int threads) {
  Tracer::Global().Reset();
  {
    Span root("test.pipeline");
    {
      Span induce("test.induce");
      const TaskContext ctx = Tracer::Global().CurrentContext();
      ParallelFor(threads, 8, [&](size_t j) {
        TaskScope scope(ctx);
        Span job("test.attr", static_cast<int64_t>(j));
      });
    }
    { Span score("test.score"); }
  }
  return Tracer::Global().TreeSummary();
}

TEST_F(TracerTest, TreeIsIdenticalForEveryThreadCount) {
  const std::string t1 = RecordTree(1);
  const std::string t2 = RecordTree(2);
  const std::string t4 = RecordTree(4);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  // The worker spans are stitched under the dispatching span, not orphaned.
  EXPECT_NE(t1.find("test.attr"), std::string::npos);
  EXPECT_EQ(Tracer::Global().NumSpans(), 11u);  // root + induce + 8 + score
}

// TSan target: many pool workers record spans concurrently while the
// dispatching thread holds an open parent span.
TEST_F(TracerTest, ConcurrentRecordingIsRaceFree) {
  Span root("test.concurrent_root");
  const TaskContext ctx = Tracer::Global().CurrentContext();
  ParallelFor(4, 64, [&](size_t j) {
    TaskScope scope(ctx);
    Span outer("test.concurrent", static_cast<int64_t>(j));
    for (int i = 0; i < 8; ++i) {
      Span inner("test.concurrent_inner", i);
    }
  });
  // 64 outer + 64*8 inner, root still open.
  EXPECT_EQ(Tracer::Global().NumSpans(), 64u + 64u * 8u + 1u);
}

TEST_F(TracerTest, ChromeTraceJsonRoundTripsThroughValidator) {
  RecordTree(2);
  const char* argv[] = {"obs_test"};
  RunManifest m = MakeRunManifest("obs_test", 1, argv);
  const std::string json = Tracer::Global().ToChromeTraceJson(&m);
  std::string error;
  ASSERT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("test.attr"), std::string::npos);
}

TEST_F(TracerTest, WriteChromeTraceFileWritesValidJson) {
  RecordTree(1);
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTraceFile(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  std::string error;
  EXPECT_TRUE(ValidateJson(content, &error)) << error;
}

// ---------------------------------------------------------------------------
// BenchReport

TEST(BenchReportTest, ToJsonCarriesSchemaManifestAndFailedSeeds) {
  const char* argv[] = {"bench_test", "--quick"};
  BenchReport report("obs_bench_test", 2, argv);
  report.Add("records", static_cast<size_t>(1000));
  report.Add("sensitivity", 0.3);
  report.SetFailedSeeds(2);
  report.manifest()->seed = 99;
  const std::string json = report.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\""), std::string::npos);
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"failed_seeds\": 2"), std::string::npos);
}

TEST(BenchReportTest, FailedSeedsDefaultsToZeroInJson) {
  BenchReport report("obs_bench_default");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"failed_seeds\": 0"), std::string::npos);
}

}  // namespace
}  // namespace dq::obs
