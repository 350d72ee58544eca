// Hierarchical scoped tracing across the pipeline and the PR-1 thread
// pool.
//
// Every phase opens a Span; spans nest through a per-thread stack, and a
// parallel region stitches its workers' spans under the caller's span by
// capturing a TaskContext before dispatch and installing it (TaskScope)
// inside the worker lambda. Recording appends to a per-thread buffer with
// no locking on the hot path — the registry mutex is taken once per thread
// lifetime, and the flush reads the buffers only after the parallel work
// has joined (the pool's future synchronization orders those accesses).
//
// The stitched tree is deterministic by construction: spans are emitted at
// fixed pipeline points (phases, per-attribute jobs keyed by attribute
// index — never per row chunk), and the flush orders siblings by
// (name, key), so the tree's names, hierarchy and counts are identical for
// every --threads value. Wall-clock numbers are whatever the run measured.
//
// Span always measures its elapsed time (two steady_clock reads) and can
// sink the duration into a double, which is how TestEnvironment's phase
// fields are views of the span measurements. Buffer recording happens only
// while the tracer is enabled, so the disabled path adds nothing beyond the
// clock reads. Tools that print phase timings enable the tracer and read
// them back with AggregateMs.
//
// Export is Chrome trace-event JSON ("traceEvents"), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing; see docs/OBSERVABILITY.md.

#ifndef DQ_OBS_TRACE_H_
#define DQ_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/manifest.h"

namespace dq::obs {

/// \brief One recorded span. Stable address (deque storage); parent links
/// may cross thread buffers.
struct SpanRecord {
  const char* name = nullptr;  ///< static string literal
  int64_t key = -1;            ///< deterministic sibling key (-1 = none)
  uint64_t start_ns = 0;       ///< since tracer epoch
  uint64_t end_ns = 0;         ///< 0 while open
  const SpanRecord* parent = nullptr;
  uint32_t thread_slot = 0;  ///< registration order, for trace tids only

  double DurationMs() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// \brief Capturable parent pointer for stitching worker spans under the
/// dispatching span. Capture on the dispatching thread, install via
/// TaskScope inside the task.
struct TaskContext {
  const SpanRecord* parent = nullptr;
};

class Tracer {
 public:
  static Tracer& Global();

  /// \brief Recording switch (measurement is unconditional in Span).
  /// Disabled by default; the CLI tools enable it at startup, the benches
  /// only when exporting a trace.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Starts a span on the calling thread (nullptr when disabled).
  SpanRecord* BeginSpan(const char* name, int64_t key);
  void EndSpan(SpanRecord* span);

  /// \brief The calling thread's innermost open span (or its installed
  /// task parent), for handing to TaskScope across the pool boundary.
  TaskContext CurrentContext();

  /// \brief Total recorded spans (open + closed) across all threads. Call
  /// only when no spans are being recorded concurrently.
  size_t NumSpans() const;

  /// \brief Summed duration of every closed span named `name` (and keyed
  /// `key`, when given), in ms. Phase timings are read this way, so the
  /// printed numbers and the exported trace are one measurement.
  double AggregateMs(std::string_view name,
                     std::optional<int64_t> key = std::nullopt) const;

  /// \brief Deterministic textual rendering of the stitched span tree —
  /// one "name[key] xN"-style line per distinct (name, key) child path,
  /// siblings sorted by (name, key). Identical for every thread count;
  /// contains no timing data. Used by the determinism tests.
  std::string TreeSummary() const;

  /// \brief Chrome trace-event JSON: {"traceEvents": [...], ...} with
  /// complete ("X") events carrying deterministic span ids, plus process /
  /// thread metadata and the run manifest when given.
  std::string ToChromeTraceJson(const RunManifest* manifest = nullptr) const;

  Status WriteChromeTraceFile(const std::string& path,
                              const RunManifest* manifest = nullptr) const;

  /// \brief Drops all recorded spans (thread registrations survive). Call
  /// only between runs, with no spans open.
  void Reset();

 private:
  struct ThreadBuffer {
    std::deque<SpanRecord> records;
    std::vector<SpanRecord*> stack;          ///< open spans, innermost last
    const SpanRecord* task_parent = nullptr; ///< installed by TaskScope
    uint32_t slot = 0;
  };

  friend class TaskScope;

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  ThreadBuffer* LocalBuffer();
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief Installs a captured TaskContext as the calling thread's span
/// parent for the scope's lifetime (restores the previous one after).
class TaskScope {
 public:
  explicit TaskScope(const TaskContext& context);
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  const SpanRecord* saved_ = nullptr;
};

/// \brief RAII span: begins on construction, ends on destruction. Always
/// measures; records into the tracer only while it is enabled; optionally
/// accumulates its duration into *target_ms.
class Span {
 public:
  explicit Span(const char* name, int64_t key = -1,
                double* target_ms = nullptr)
      : start_(std::chrono::steady_clock::now()),
        record_(Tracer::Global().BeginSpan(name, key)),
        target_ms_(target_ms) {}

  ~Span() {
    if (record_ != nullptr) Tracer::Global().EndSpan(record_);
    if (target_ms_ != nullptr) *target_ms_ += ElapsedMs();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
  SpanRecord* record_;
  double* target_ms_;
};

}  // namespace dq::obs

#endif  // DQ_OBS_TRACE_H_
