// Tests for the monitoring subsystem (src/obs): the JSON DOM parser, the
// run-history JSONL ledger, the snapshot drift engine and the annotated
// rule-set differ — the pieces dqmon composes into continuous monitoring.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "mutate.h"
#include "obs/drift.h"
#include "obs/history.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/rule_diff.h"

namespace dq::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON DOM parser

TEST(JsonParseTest, ParsesScalarsObjectsAndArrays) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5}})", &v,
                        &error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("a")->AsInt64(), 1);
  const JsonValue* b = v.Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].bool_value);
  EXPECT_TRUE(b->items[1].is_null());
  EXPECT_EQ(b->items[2].AsString(), "x");
  EXPECT_DOUBLE_EQ(v.Find("c")->Find("d")->AsDouble(), -2.5);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, PreservesLargeIntegersViaRawSpelling) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("{\"n\":18446744073709551615}", &v));
  // 2^64 - 1 survives; a double round trip would have lost precision.
  EXPECT_EQ(v.Find("n")->AsUint64(), 18446744073709551615ull);
  // Exponent spellings go through a double; one the integer type cannot
  // hold (or an infinity) reads as the fallback.
  for (const char* text : {"1e300", "-1e300", "1e999", "9.3e18"}) {
    ASSERT_TRUE(ParseJson(text, &v)) << text;
    EXPECT_EQ(v.AsInt64(-7), -7) << text;
  }
  for (const char* text : {"2e19", "1e300"}) {
    ASSERT_TRUE(ParseJson(text, &v)) << text;
    EXPECT_EQ(v.AsUint64(7), 7u) << text;
  }
  ASSERT_TRUE(ParseJson("9.2e18", &v));
  EXPECT_EQ(v.AsInt64(-7), int64_t{9200000000000000000});
}

TEST(JsonParseTest, DecodesEscapesAndUnicode) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"("a\"b\\c\nAé")", &v));
  EXPECT_EQ(v.AsString(), "a\"b\\c\nA\xc3\xa9");
  // Surrogate pair -> one 4-byte UTF-8 code point.
  ASSERT_TRUE(ParseJson(R"("😀")", &v));
  EXPECT_EQ(v.AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":}", &v, &error));
  EXPECT_FALSE(ParseJson("[1,2", &v));
  EXPECT_FALSE(ParseJson("1 2", &v));  // trailing garbage
  EXPECT_FALSE(ParseJson("", &v));
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonObjectWriter w;
  w.Add("name", "qu\"oted\\path\nwith\tcontrols");
  w.Add("value", 0.125);
  const std::string rendered = w.Render(0);
  JsonValue v;
  ASSERT_TRUE(ParseJson(rendered, &v));
  EXPECT_EQ(v.Find("name")->AsString(), "qu\"oted\\path\nwith\tcontrols");
  EXPECT_DOUBLE_EQ(v.Find("value")->AsDouble(), 0.125);
}

// ---------------------------------------------------------------------------
// Clock seam

TEST(ClockSeamTest, FixedClockMakesTimestampsDeterministic) {
  SetEpochMillisForTesting(1700000000123);
  EXPECT_TRUE(EpochClockOverridden());
  EXPECT_EQ(EpochMillisNow(), 1700000000123);
  EXPECT_EQ(FormatUtcTimestamp(EpochMillisNow()), "2023-11-14T22:13:20.123Z");
  SetEpochMillisForTesting(-1);
  EXPECT_FALSE(EpochClockOverridden());
}

TEST(ClockSeamTest, WallClockIsZeroUnderFixedClock) {
  SetEpochMillisForTesting(1700000000000);
  RunManifest manifest;
  manifest.started_unix_ms = EpochMillisNow();
  manifest.StampWallClock();
  EXPECT_EQ(manifest.wall_ms, 0.0);
  SetEpochMillisForTesting(-1);
}

// ---------------------------------------------------------------------------
// History records and the ledger

HistoryRecord MakeRecord(uint64_t records, uint64_t suspicious) {
  HistoryRecord record;
  record.manifest.tool = "dqaudit";
  record.manifest.version = "1.0";
  record.manifest.build_type = "Release";
  record.manifest.config_hash = "deadbeefdeadbeef";
  record.manifest.seed = 42;
  record.manifest.threads_used = 4;
  record.manifest.started_unix_ms = 1700000000000;
  record.manifest.started_utc = "2023-11-14T22:13:20.000Z";
  record.manifest.input_hashes = {{"schema", "aaaa"}, {"data", "bbbb"}};
  record.summary.records = records;
  record.summary.suspicious = suspicious;
  record.summary.suspicion_rate =
      records > 0 ? static_cast<double>(suspicious) /
                        static_cast<double>(records)
                  : 0.0;
  record.summary.rule_violations = {{"BRV = 404 -> GBM = 901", 7}};
  record.summary.top_confidences = {0.99, 0.95};
  record.summary.timings_ms = {{"ingest", 0.0}, {"induce", 0.0}};
  record.metrics.counters = {{"c45.nodes", 123}};
  record.metrics.gauges = {{"pool.gone", 1.5}};
  return record;
}

TEST(HistoryRecordTest, JsonLineRoundTripsExactly) {
  const HistoryRecord record = MakeRecord(1000, 60);
  const std::string line = record.ToJsonLine();
  ASSERT_TRUE(ValidateJson(line));
  JsonValue json;
  ASSERT_TRUE(ParseJson(line, &json));
  auto parsed = HistoryRecord::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Re-rendering the parsed record reproduces the line byte for byte —
  // the determinism the CI smoke test relies on.
  EXPECT_EQ(parsed->ToJsonLine(), line);
  EXPECT_EQ(parsed->manifest.tool, "dqaudit");
  EXPECT_EQ(parsed->summary.records, 1000u);
  ASSERT_EQ(parsed->summary.rule_violations.size(), 1u);
  EXPECT_EQ(parsed->summary.rule_violations[0].second, 7u);
}

TEST(HistoryRecordTest, MutatedLedgerLineFailsOrRoundTrips) {
  // Every mutant of a ledger line either fails ParseJson, or FromJson
  // refuses it with a Status, or the record re-renders to a line that
  // parses back to the same record (the same line again).
  const std::string line = MakeRecord(1000, 60).ToJsonLine();
  using std::string_view_literals::operator""sv;
  const std::vector<std::string_view> tokens = {
      "null"sv, "true"sv,  "0"sv,         "-1"sv,
      "1e308"sv, "0.1234567"sv, "18446744073709551616"sv, "\"\""sv,
      "[]"sv,   "{}"sv,    "\"\\u0000\""sv, "\"schema_version\""sv,
  };
  dq::Rng rng(24);
  constexpr int kCases = 20000;
  int accepted = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = line;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) {
      dq::Mutate(&rng, &text, tokens, " ,:{}[]\""sv);
    }
    JsonValue json;
    if (!ParseJson(text, &json)) continue;
    auto record = HistoryRecord::FromJson(json);
    if (!record.ok()) {
      ASSERT_FALSE(record.status().message().empty()) << "case " << c;
      continue;
    }
    ++accepted;
    const std::string again = record->ToJsonLine();
    JsonValue reparsed;
    ASSERT_TRUE(ParseJson(again, &reparsed)) << "case " << c << ": " << again;
    auto back = HistoryRecord::FromJson(reparsed);
    ASSERT_TRUE(back.ok()) << "case " << c << ": " << back.status();
    ASSERT_EQ(back->ToJsonLine(), again) << "case " << c;
  }
  // Both outcomes occur.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(HistoryRecordTest, RejectsWrongSchemaVersion) {
  JsonValue json;
  ASSERT_TRUE(ParseJson("{\"schema_version\":999,\"manifest\":{}}", &json));
  EXPECT_FALSE(HistoryRecord::FromJson(json).ok());
}

TEST(HistoryStoreTest, AppendsAndReadsBackSkippingDamagedLines) {
  const std::string dir =
      ::testing::TempDir() + "/dq_history_store_test";
  HistoryStore store(dir);
  ASSERT_TRUE(store.Append(MakeRecord(100, 3)).ok());
  ASSERT_TRUE(store.Append(MakeRecord(100, 4)).ok());
  {
    // A torn line from a crashed writer plus a stray blank.
    std::ofstream out(store.ledger_path(), std::ios::app | std::ios::binary);
    out << "{\"schema_version\":1,\"man\n\n";
  }
  ASSERT_TRUE(store.Append(MakeRecord(100, 5)).ok());
  size_t damaged = 0;
  auto records = store.ReadAll(&damaged);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ(damaged, 1u);
  EXPECT_EQ((*records)[0].summary.suspicious, 3u);
  EXPECT_EQ((*records)[2].summary.suspicious, 5u);
  std::remove(store.ledger_path().c_str());
}

std::string LedgerBytes(const HistoryStore& store) {
  std::ifstream in(store.ledger_path(), std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(HistoryStoreTest, AppendCutShortLeavesTheLedgerAsItWas) {
  // An append that hits a file size limit mid-line must fail and leave the
  // ledger byte for byte as it was: a partial line left behind would glue
  // the next good record onto it, and that record would read as damaged.
  const std::string dir =
      ::testing::TempDir() + "/dq_history_cut_short";
  std::filesystem::remove_all(dir);
  HistoryStore store(dir);
  ASSERT_TRUE(store.Append(MakeRecord(100, 1)).ok());
  ASSERT_TRUE(store.Append(MakeRecord(100, 2)).ok());
  const std::string before = LedgerBytes(store);

  // The child may grow the ledger by 16 bytes, far less than a record;
  // SIGXFSZ is ignored, so the write fails with EFBIG instead of killing
  // it. Exit 0: OK, 1: IOError, 2: another error, 3: set-up failed.
  const pid_t pid = fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    limit.rlim_cur = static_cast<rlim_t>(before.size() + 16);
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    const Status status = store.Append(MakeRecord(100, 3));
    _exit(status.ok() ? 0 : status.code() == StatusCode::kIOError ? 1 : 2);
  }
  int wait_status = 0;
  ASSERT_GT(pid, 0);
  ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 1);
  EXPECT_EQ(LedgerBytes(store), before);

  ASSERT_TRUE(store.Append(MakeRecord(100, 4)).ok());
  size_t damaged = 0;
  auto records = store.ReadAll(&damaged);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ(damaged, 0u);
  EXPECT_EQ((*records)[2].summary.suspicious, 4u);
  std::filesystem::remove_all(dir);
}

TEST(HistoryStoreTest, MissingLedgerIsAnError) {
  HistoryStore store(::testing::TempDir() + "/dq_history_missing");
  EXPECT_FALSE(store.ReadAll().ok());
}

TEST(HistoryStoreTest, CompactKeepsNewestRunsByteForByte) {
  const std::string dir =
      ::testing::TempDir() + "/dq_history_compact_test";
  HistoryStore store(dir);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(100, i)).ok());
  }
  // Snapshot the raw bytes of the lines that should survive (the newest
  // three) — compaction must keep them verbatim, never re-render.
  std::vector<std::string> lines;
  {
    std::ifstream in(store.ledger_path(), std::ios::binary);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 6u);

  size_t dropped_runs = 0;
  size_t dropped_damaged = 0;
  ASSERT_TRUE(store.Compact(3, &dropped_runs, &dropped_damaged).ok());
  EXPECT_EQ(dropped_runs, 3u);
  EXPECT_EQ(dropped_damaged, 0u);
  {
    std::ifstream in(store.ledger_path(), std::ios::binary);
    std::string line;
    std::vector<std::string> kept;
    while (std::getline(in, line)) kept.push_back(line);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0], lines[3]);
    EXPECT_EQ(kept[1], lines[4]);
    EXPECT_EQ(kept[2], lines[5]);
  }
  auto records = store.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].summary.suspicious, 3u);
  EXPECT_EQ((*records)[2].summary.suspicious, 5u);
  std::remove(store.ledger_path().c_str());
}

TEST(HistoryStoreTest, CompactDropsDamagedLinesAndToleratesNoOp) {
  const std::string dir =
      ::testing::TempDir() + "/dq_history_compact_damaged";
  HistoryStore store(dir);
  ASSERT_TRUE(store.Append(MakeRecord(100, 1)).ok());
  {
    std::ofstream out(store.ledger_path(), std::ios::app | std::ios::binary);
    out << "{\"schema_version\":1,\"torn\n";
  }
  ASSERT_TRUE(store.Append(MakeRecord(100, 2)).ok());

  size_t dropped_runs = 0;
  size_t dropped_damaged = 0;
  ASSERT_TRUE(store.Compact(10, &dropped_runs, &dropped_damaged).ok());
  EXPECT_EQ(dropped_runs, 0u);  // both records fit under the cap
  EXPECT_EQ(dropped_damaged, 1u);
  size_t damaged = 0;
  auto records = store.ReadAll(&damaged);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(damaged, 0u);  // the torn line is gone from the file

  // Already compact: a second call is a no-op that must not rewrite.
  ASSERT_TRUE(store.Compact(10, &dropped_runs, &dropped_damaged).ok());
  EXPECT_EQ(dropped_runs, 0u);
  EXPECT_EQ(dropped_damaged, 0u);

  // Zero cap is rejected; a missing ledger is a clean no-op.
  EXPECT_FALSE(store.Compact(0).ok());
  HistoryStore missing(::testing::TempDir() + "/dq_history_compact_missing");
  EXPECT_TRUE(missing.Compact(5).ok());
  std::remove(store.ledger_path().c_str());
}

// ---------------------------------------------------------------------------
// Drift engine

TEST(DriftTest, NoDriftForIdenticalRuns) {
  const HistoryRecord base = MakeRecord(1000, 60);
  DriftReport report = DetectDrift({base}, MakeRecord(1000, 60));
  EXPECT_FALSE(report.HasDrift());
  // The headline suspicion-rate finding is always present, at info.
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings[0].kind, "suspicion_rate");
  EXPECT_EQ(report.findings[0].severity, DriftSeverity::kInfo);
}

TEST(DriftTest, SuspicionRateDriftRequiresBothThresholds) {
  const HistoryRecord base = MakeRecord(10000, 100);  // rate 0.01
  // +50% relative but only +0.005 absolute: defaults (0.002 abs, 0.10
  // rel) are both exceeded -> drift.
  DriftReport drifted = DetectDrift({base}, MakeRecord(10000, 150));
  EXPECT_TRUE(drifted.HasDrift());
  EXPECT_EQ(drifted.findings[0].kind, "suspicion_rate");
  EXPECT_EQ(drifted.findings[0].severity, DriftSeverity::kDrift);

  // +0.0001 absolute stays under the absolute gate even though the
  // relative gate would fire on a tiny baseline.
  const HistoryRecord small_base = MakeRecord(100000, 10);  // rate 0.0001
  DriftReport tiny = DetectDrift({small_base}, MakeRecord(100000, 20));
  EXPECT_FALSE(tiny.HasDrift());

  // Large absolute move that is relatively small also stays info.
  DriftThresholds strict;
  strict.suspicion_rate_rel = 5.0;  // require a 5x relative move
  DriftReport rel_gated = DetectDrift({base}, MakeRecord(10000, 150), strict);
  EXPECT_FALSE(rel_gated.HasDrift());
}

TEST(DriftTest, SuspicionRateRanksFirstAmongDriftFindings) {
  HistoryRecord base = MakeRecord(10000, 100);
  base.summary.rule_violations = {{"rule A", 10}};
  HistoryRecord current = MakeRecord(10000, 500);
  current.summary.rule_violations = {{"rule A", 100}};
  DriftReport report = DetectDrift({base}, current);
  ASSERT_GE(report.findings.size(), 2u);
  EXPECT_TRUE(report.HasDrift());
  EXPECT_EQ(report.findings[0].kind, "suspicion_rate");
  EXPECT_EQ(report.findings[1].kind, "rule_violation");
  EXPECT_EQ(report.findings[1].severity, DriftSeverity::kDrift);
}

TEST(DriftTest, RollingBaselineUsesWindowMean) {
  std::vector<HistoryRecord> window = {
      MakeRecord(1000, 10), MakeRecord(1000, 20), MakeRecord(1000, 30)};
  DriftReport report = DetectDrift(window, MakeRecord(1000, 20));
  // Baseline mean rate is 0.02 == current rate: no drift.
  EXPECT_FALSE(report.HasDrift());
  EXPECT_DOUBLE_EQ(report.findings[0].baseline, 0.02);
  EXPECT_EQ(report.baseline_runs, 3u);
}

TEST(DriftTest, RuleSetMembershipChangesAreWarnings) {
  HistoryRecord base = MakeRecord(1000, 10);
  base.summary.rule_violations = {{"old rule", 5}};
  HistoryRecord current = MakeRecord(1000, 10);
  current.summary.rule_violations = {{"new rule", 5}};
  DriftReport report = DetectDrift({base}, current);
  size_t rule_set = 0;
  for (const DriftFinding& f : report.findings) {
    if (f.kind == "rule_set") {
      ++rule_set;
      EXPECT_EQ(f.severity, DriftSeverity::kWarn);
    }
  }
  EXPECT_EQ(rule_set, 2u);  // one removed, one added
  EXPECT_FALSE(report.HasDrift());
}

TEST(DriftTest, ManifestChangesAreReported) {
  HistoryRecord base = MakeRecord(1000, 10);
  HistoryRecord current = MakeRecord(1000, 10);
  current.manifest.input_hashes = {{"schema", "cccc"}, {"data", "dddd"}};
  current.manifest.config_hash = "0123456789abcdef";
  DriftReport report = DetectDrift({base}, current);
  bool schema_change = false, input_change = false, config_change = false;
  for (const DriftFinding& f : report.findings) {
    if (f.kind == "schema_change") {
      schema_change = true;
      EXPECT_EQ(f.severity, DriftSeverity::kWarn);
    }
    if (f.kind == "input_change") input_change = true;
    if (f.kind == "config_change") config_change = true;
  }
  EXPECT_TRUE(schema_change);
  EXPECT_TRUE(input_change);
  EXPECT_TRUE(config_change);
  EXPECT_FALSE(report.HasDrift());  // none of these gate by themselves
}

TEST(DriftTest, TimingRegressionsCapAtWarn) {
  HistoryRecord base = MakeRecord(1000, 10);
  base.summary.timings_ms = {{"ingest", 100.0}};
  HistoryRecord current = MakeRecord(1000, 10);
  current.summary.timings_ms = {{"ingest", 500.0}};
  DriftReport report = DetectDrift({base}, current);
  bool timing = false;
  for (const DriftFinding& f : report.findings) {
    if (f.kind == "timing") {
      timing = true;
      EXPECT_EQ(f.severity, DriftSeverity::kWarn);
    }
  }
  EXPECT_TRUE(timing);
  EXPECT_FALSE(report.HasDrift());
}

TEST(DriftTest, ReportRendersTextAndValidJson) {
  DriftReport report = DetectDrift({MakeRecord(10000, 100)},
                                   MakeRecord(10000, 500));
  const std::string text = report.RenderText();
  EXPECT_NE(text.find("suspicion_rate"), std::string::npos);
  std::string error;
  EXPECT_TRUE(ValidateJson(report.ToJson(), &error)) << error;
  EXPECT_TRUE(ValidateJson(report.ToJson(0), &error)) << error;
}

TEST(DriftTest, ReportIsDeterministic) {
  HistoryRecord base = MakeRecord(10000, 100);
  base.summary.rule_violations = {{"r1", 10}, {"r2", 20}, {"r3", 30}};
  HistoryRecord current = MakeRecord(10000, 500);
  current.summary.rule_violations = {{"r1", 100}, {"r2", 200}, {"r3", 3}};
  const std::string a = DetectDrift({base}, current).RenderText();
  const std::string b = DetectDrift({base}, current).RenderText();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Rule-set differ

constexpr const char* kRulesV1 =
    "# mined by dqsuggest\n"
    "# @rule conf=0.9900 support=120 coverage=0.500000 source=c45\n"
    "BRV = 404 -> GBM = 901\n"
    "# @rule conf=0.9000 support=80 coverage=0.250000 source=assoc\n"
    "N < 5 -> B = low\n"
    "KBM = 01 -> BRV = 501\n";

TEST(RuleDiffTest, ParsesAnnotationsAndPlainRules) {
  auto rules = ParseAnnotatedRuleFile(kRulesV1);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_TRUE((*rules)[0].annotated);
  EXPECT_DOUBLE_EQ((*rules)[0].confidence, 0.99);
  EXPECT_EQ((*rules)[0].support, 120u);
  EXPECT_EQ((*rules)[0].source, "c45");
  EXPECT_EQ((*rules)[1].text, "N < 5 -> B = low");
  EXPECT_FALSE((*rules)[2].annotated);
}

TEST(RuleDiffTest, RejectsDanglingAnnotation) {
  EXPECT_FALSE(ParseAnnotatedRuleFile("# @rule conf=0.9\n").ok());
  EXPECT_FALSE(
      ParseAnnotatedRuleFile("# @rule conf=0.9\n# @rule conf=0.8\nA = 1 -> B = 2\n")
          .ok());
  // Annotation values must parse whole; the error names the line and key.
  for (const std::string bad : {"conf=abc", "coverage=0.5x", "support=-1"}) {
    auto parsed = ParseAnnotatedRuleFile("A = 1 -> B = 2\n# @rule " + bad +
                                         "\nA = 1 -> B = 3\n");
    ASSERT_FALSE(parsed.ok()) << bad;
    const std::string& message = parsed.status().message();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    const std::string key = bad.substr(0, bad.find('='));
    EXPECT_NE(message.find("'" + key + "'"), std::string::npos) << message;
  }
}

TEST(RuleDiffTest, DetectsThresholdShiftNotEqualityChange) {
  auto before = ParseAnnotatedRuleFile("N < 5 -> B = low\nA = 404 -> B = 901\n");
  auto after = ParseAnnotatedRuleFile("N < 9 -> B = low\nA = 405 -> B = 901\n");
  ASSERT_TRUE(before.ok() && after.ok());
  RuleSetDiff diff = DiffRuleSets(*before, *after);
  // "N < 5" vs "N < 9" is one threshold shift; "A = 404" vs "A = 405"
  // is an equality test on a categorical code — removed + added.
  size_t shifts = 0, added = 0, removed = 0;
  for (const RuleChange& c : diff.changes) {
    if (c.kind == "threshold_shift") ++shifts;
    if (c.kind == "added") ++added;
    if (c.kind == "removed") ++removed;
  }
  EXPECT_EQ(shifts, 1u);
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(removed, 1u);
}

TEST(RuleDiffTest, DetectsAnnotationDeltaOnIdenticalRuleText) {
  auto before = ParseAnnotatedRuleFile(
      "# @rule conf=0.9000 support=80 coverage=0.25 source=assoc\n"
      "N < 5 -> B = low\n");
  auto after = ParseAnnotatedRuleFile(
      "# @rule conf=0.8000 support=60 coverage=0.25 source=assoc\n"
      "N < 5 -> B = low\n");
  ASSERT_TRUE(before.ok() && after.ok());
  RuleSetDiff diff = DiffRuleSets(*before, *after);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, "annotation_delta");
  EXPECT_TRUE(diff.changes[0].has_annotation_delta);
  EXPECT_NEAR(diff.changes[0].confidence_delta, -0.1, 1e-12);
  EXPECT_EQ(diff.changes[0].support_delta, -20);
  EXPECT_EQ(diff.unchanged, 0u);
}

TEST(RuleDiffTest, IdenticalFilesAreAllUnchanged) {
  auto rules = ParseAnnotatedRuleFile(kRulesV1);
  ASSERT_TRUE(rules.ok());
  RuleSetDiff diff = DiffRuleSets(*rules, *rules);
  EXPECT_EQ(diff.unchanged, 3u);
  EXPECT_FALSE(diff.HasChanges());
}

TEST(RuleDiffTest, RendersTextAndValidJson) {
  auto before = ParseAnnotatedRuleFile(kRulesV1);
  auto after = ParseAnnotatedRuleFile("BRV = 404 -> GBM = 901\n");
  ASSERT_TRUE(before.ok() && after.ok());
  RuleSetDiff diff = DiffRuleSets(*before, *after);
  EXPECT_NE(diff.RenderText().find("removed"), std::string::npos);
  std::string error;
  EXPECT_TRUE(ValidateJson(diff.ToJson(), &error)) << error;
}

TEST(RuleDiffTest, MutatedAnnotatedFileFailsOrDiffsCleanly) {
  // Every mutant of an annotated rule file either fails with a Status, or
  // its rules diff against themselves with no change and against the
  // original with a diff whose ToJson ParseJson accepts.
  const std::string file =
      std::string(kRulesV1) +
      "\n"
      "# @rule conf=1 support=9223372036854775807 coverage=1e-300 "
      "source=tree\n"
      "(N > 95 OR M < 2.5) AND D > 2000-01-01 -> KBM isnotnull\n"
      "# @rule source=\"quoted \\ source\" conf=0.5 extra=ignored\n"
      "N < M -> GBM = '911'\n";
  auto original = ParseAnnotatedRuleFile(file);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_EQ(original->size(), 5u);
  using std::string_view_literals::operator""sv;
  const std::vector<std::string_view> tokens = {
      "#"sv,          "@rule"sv,        "conf=nan"sv,   "conf=1e308"sv,
      "conf=-0"sv,    "support=-1"sv,   "support=18446744073709551616"sv,
      "coverage=inf"sv, "coverage=4.9e-324"sv, "source="sv, "=="sv,
      "<"sv,          ">"sv,            "5"sv,          "0.1234567"sv,
      "\"\\u0000\""sv,
  };
  dq::Rng rng(28);
  constexpr int kCases = 20000;
  int parsed = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = file;
    const int64_t mutations = rng.UniformInt(1, 4);
    for (int64_t m = 0; m < mutations; ++m) {
      dq::Mutate(&rng, &text, tokens, " \n="sv);
    }
    auto rules = ParseAnnotatedRuleFile(text);
    if (!rules.ok()) {
      ASSERT_FALSE(rules.status().message().empty()) << "case " << c;
      continue;
    }
    ++parsed;
    const RuleSetDiff self = DiffRuleSets(*rules, *rules);
    ASSERT_FALSE(self.HasChanges()) << "case " << c << "\n" << text;
    ASSERT_EQ(self.unchanged, rules->size()) << "case " << c;
    const std::string json = DiffRuleSets(*original, *rules).ToJson();
    JsonValue value;
    ASSERT_TRUE(ParseJson(json, &value)) << "case " << c << "\n" << json;
  }
  // Both outcomes occur.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCases);
}

}  // namespace
}  // namespace dq::obs
