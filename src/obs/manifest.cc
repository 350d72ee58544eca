#include "obs/manifest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

namespace dq::obs {

namespace {

constexpr int64_t kNoOverride = -1;

/// Fixed-clock override: set by SetEpochMillisForTesting, or read once
/// from DQ_UTC_OVERRIDE_MS (the seam the deterministic CLI tests use).
std::atomic<int64_t>& OverrideMillis() {
  static std::atomic<int64_t> value{kNoOverride};
  return value;
}

int64_t EnvOverrideMillis() {
  static const int64_t from_env = [] {
    const char* env = std::getenv("DQ_UTC_OVERRIDE_MS");
    if (env == nullptr || *env == '\0') return kNoOverride;
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) return kNoOverride;
    return static_cast<int64_t>(parsed);
  }();
  return from_env;
}

}  // namespace

int64_t EpochMillisNow() {
  const int64_t fixed = OverrideMillis().load(std::memory_order_relaxed);
  if (fixed >= 0) return fixed;
  const int64_t env = EnvOverrideMillis();
  if (env >= 0) return env;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void SetEpochMillisForTesting(int64_t fixed_ms) {
  OverrideMillis().store(fixed_ms < 0 ? kNoOverride : fixed_ms,
                         std::memory_order_relaxed);
}

bool EpochClockOverridden() {
  if (OverrideMillis().load(std::memory_order_relaxed) >= 0) return true;
  return EnvOverrideMillis() >= 0;
}

std::string FormatUtcTimestamp(int64_t epoch_ms) {
  const std::time_t seconds = static_cast<std::time_t>(epoch_ms / 1000);
  const int millis = static_cast<int>(epoch_ms % 1000);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &seconds);
#else
  gmtime_r(&seconds, &utc);
#endif
  // Sized for any int fields, so -Wformat-truncation can prove no cut.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, millis);
  return buf;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string HashHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

void RunManifest::StampWallClock() {
  const int64_t now = EpochMillisNow();
  wall_ms = started_unix_ms > 0 && now >= started_unix_ms
                ? static_cast<double>(now - started_unix_ms)
                : 0.0;
}

std::string RunManifest::ToJson(int indent) const {
  JsonObjectWriter out;
  out.Add("schema_version", kSchemaVersion);
  out.Add("tool", tool);
  out.Add("version", version);
  out.Add("build_type", build_type);
  out.Add("config_hash", config_hash);
  out.Add("seed", seed);
  out.Add("threads_requested", threads_requested);
  out.Add("threads_used", threads_used);
  out.AddRaw("started_unix_ms", std::to_string(started_unix_ms));
  out.Add("started_utc", started_utc);
  out.Add("wall_ms", wall_ms);
  JsonObjectWriter inputs;
  for (const auto& [label, hash] : input_hashes) {
    inputs.Add(label, hash);
  }
  out.AddRaw("input_hashes", inputs.Render(indent));
  return out.Render(indent);
}

void RunManifest::AppendTo(JsonObjectWriter* out, int indent) const {
  out->AddRaw("manifest", ToJson(indent));
}

RunManifest MakeRunManifest(std::string tool, int argc,
                            const char* const* argv) {
  RunManifest manifest;
  manifest.tool = std::move(tool);
  manifest.version = "1.0.0";
#ifdef DQ_BUILD_TYPE
  manifest.build_type = DQ_BUILD_TYPE;
#elif defined(NDEBUG)
  manifest.build_type = "Release";
#else
  manifest.build_type = "Debug";
#endif
  // Hash every argv element with a separator that cannot occur inside one,
  // so ["--a", "bc"] and ["--ab", "c"] hash differently.
  std::string joined;
  for (int i = 0; i < argc; ++i) {
    joined += argv[i];
    joined += '\0';
  }
  manifest.config_hash = HashHex(Fnv1a64(joined));
  manifest.started_unix_ms = EpochMillisNow();
  manifest.started_utc = FormatUtcTimestamp(manifest.started_unix_ms);
  return manifest;
}

Status RunManifestFromJson(const JsonValue& json, RunManifest* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("manifest JSON is not an object");
  }
  *out = RunManifest();
  if (const JsonValue* v = json.Find("tool")) out->tool = v->AsString();
  if (const JsonValue* v = json.Find("version")) out->version = v->AsString();
  if (const JsonValue* v = json.Find("build_type")) {
    out->build_type = v->AsString();
  }
  if (const JsonValue* v = json.Find("config_hash")) {
    out->config_hash = v->AsString();
  }
  if (const JsonValue* v = json.Find("seed")) out->seed = v->AsUint64();
  if (const JsonValue* v = json.Find("threads_requested")) {
    out->threads_requested = static_cast<int>(v->AsInt64());
  }
  if (const JsonValue* v = json.Find("threads_used")) {
    out->threads_used = static_cast<int>(v->AsInt64());
  }
  if (const JsonValue* v = json.Find("started_unix_ms")) {
    out->started_unix_ms = v->AsInt64();
  }
  if (const JsonValue* v = json.Find("started_utc")) {
    out->started_utc = v->AsString();
  }
  if (const JsonValue* v = json.Find("wall_ms")) out->wall_ms = v->AsDouble();
  if (const JsonValue* inputs = json.Find("input_hashes");
      inputs != nullptr && inputs->is_object()) {
    for (const auto& [label, hash] : inputs->members) {
      out->input_hashes.emplace_back(label, hash.AsString());
    }
  }
  return Status::OK();
}

Status AddInputFileHash(RunManifest* manifest, const std::string& label,
                        const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot read " + path + " for manifest hashing");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  manifest->input_hashes.emplace_back(label,
                                      HashHex(Fnv1a64(contents.str())));
  return Status::OK();
}

}  // namespace dq::obs
