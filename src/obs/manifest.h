// RunManifest: the reproducibility record attached to every trace file,
// metrics dump and BENCH_*.json. A reported number is only evidence if the
// run that produced it can be reconstructed — the manifest pins the tool,
// seed, thread count, build type, the exact CLI configuration (hashed) and
// the content hashes of every input file (schema, rule files, data).

#ifndef DQ_OBS_MANIFEST_H_
#define DQ_OBS_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace dq::obs {

/// \brief The FNV-1a offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// \brief 64-bit FNV-1a over `data`; stable across platforms and runs.
/// Passing the hash of a prefix as `hash` continues it, so hashing a file
/// chunk by chunk gives the hash of its whole contents.
uint64_t Fnv1a64(std::string_view data, uint64_t hash = kFnv1a64Offset);

/// \brief Fixed-width lowercase hex rendering of a 64-bit hash.
std::string HashHex(uint64_t hash);

/// \brief Clock seam for run timestamps. `EpochMillisNow` returns wall
/// milliseconds since the Unix epoch; tests (and the CLI shell tests, via
/// the DQ_UTC_OVERRIDE_MS environment variable read on first use) inject a
/// fixed value so stamped manifests and history records stay byte-stable.
int64_t EpochMillisNow();

/// \brief Overrides the epoch clock (<0 restores the real clock, taking
/// precedence over DQ_UTC_OVERRIDE_MS).
void SetEpochMillisForTesting(int64_t fixed_ms);

/// \brief True when a fixed clock is active (setter or environment). Wall
/// durations are recorded as 0 under a fixed clock so that two runs of the
/// same configuration produce byte-identical records.
bool EpochClockOverridden();

/// \brief "YYYY-MM-DDThh:mm:ss.mmmZ" for a Unix-epoch millisecond count.
std::string FormatUtcTimestamp(int64_t epoch_ms);

struct RunManifest {
  /// Bumped whenever the manifest JSON layout changes.
  /// v2: added started_utc / started_unix_ms / wall_ms (PR 9).
  static constexpr int kSchemaVersion = 2;

  std::string tool;               ///< binary name, e.g. "dqaudit"
  std::string version;            ///< project version (defaults below)
  std::string build_type;         ///< CMAKE_BUILD_TYPE the binary was built as
  std::string config_hash;        ///< FNV-1a over the full argv vector
  uint64_t seed = 0;              ///< RNG seed driving the run (0 = none)
  int threads_requested = 0;      ///< --threads as given (0 = auto)
  int threads_used = 1;           ///< resolved worker count
  int64_t started_unix_ms = 0;    ///< run start, Unix epoch milliseconds
  std::string started_utc;        ///< run start as an ISO-8601 UTC string
  double wall_ms = 0.0;           ///< wall-clock duration stamped at export

  /// Content hashes of the input files the run depends on, as
  /// (label, hex-hash) in insertion order — e.g. ("schema", "1f..."),
  /// ("rules", "ab...").
  std::vector<std::pair<std::string, std::string>> input_hashes;

  /// \brief Stamps wall_ms with the elapsed time since started_unix_ms.
  /// Call once, immediately before exporting. Under a fixed test clock the
  /// duration is 0 by construction.
  void StampWallClock();

  /// \brief Renders the manifest as one JSON object (schema in
  /// docs/OBSERVABILITY.md).
  std::string ToJson(int indent = 2) const;

  /// \brief Adds the manifest as a nested "manifest" member of `out`.
  void AppendTo(JsonObjectWriter* out, int indent = 2) const;
};

/// \brief Rebuilds a manifest from its parsed JSON rendering (the inverse
/// of ToJson, used by the run-history reader). Unknown members are
/// ignored; missing members keep their defaults.
Status RunManifestFromJson(const JsonValue& json, RunManifest* out);

/// \brief Builds a manifest for this process: tool name, project version,
/// build type and the hash of the full command line. Seed/threads stay at
/// their defaults for the caller to fill in.
RunManifest MakeRunManifest(std::string tool, int argc,
                            const char* const* argv);

/// \brief Hashes the contents of `path` and records it under `label`.
/// Unreadable files fail with IOError and leave the manifest unchanged.
Status AddInputFileHash(RunManifest* manifest, const std::string& label,
                        const std::string& path);

}  // namespace dq::obs

#endif  // DQ_OBS_MANIFEST_H_
