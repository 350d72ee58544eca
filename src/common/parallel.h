// Fixed-size thread pool and data-parallel helpers.
//
// The audit pipeline is embarrassingly parallel along two axes: structure
// induction trains one independent classifier per class attribute (sec. 5),
// and data checking scores each record independently (Def. 7/8 are
// per-record). Both are dispatched through the pool here. Parallel runs are
// bitwise-reproducible regardless of thread count because
//   * every output is written to a pre-assigned slot (no reduction order
//     dependence), and
//   * stochastic tasks derive their seed from TaskSeed(base, task_id)
//     (SplitMix64 child streams) instead of sharing an engine.

#ifndef DQ_COMMON_PARALLEL_H_
#define DQ_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dq {

/// \brief Number of hardware threads; always >= 1.
int HardwareThreads();

/// \brief Maps a user thread-count setting to an effective count: any
/// non-positive value (0 = auto, negatives included) becomes
/// HardwareThreads(). One documented behavior for every CLI and for
/// ThreadPool construction.
int ResolveThreadCount(int requested);

/// \brief Deterministic per-task child seed: the same (base_seed, task_id)
/// pair yields the same stream on every run and thread schedule.
uint64_t TaskSeed(uint64_t base_seed, uint64_t task_id);

/// \brief Process-wide thread-pool activity counters, maintained with
/// relaxed atomics by every pool. The observability layer exports them as
/// gauges (pool.* in the metrics dump); they are monotone over the process
/// lifetime.
struct PoolStats {
  uint64_t pools_created = 0;
  uint64_t tasks_executed = 0;
  uint64_t peak_queue_depth = 0;  ///< deepest backlog any pool ever saw
};

PoolStats GlobalPoolStats();

/// \brief Small fixed-size thread pool with a shared FIFO task queue.
///
/// A pool of size 1 executes submitted tasks on its single worker; the
/// convenience ParallelFor additionally short-circuits to inline execution
/// when the pool would not help (one thread or one item).
class ThreadPool {
 public:
  /// \brief Spawns ResolveThreadCount(num_threads) workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueues a task; the future resolves when it finishes (and
  /// carries any exception the task threw).
  std::future<void> Submit(std::function<void()> fn);

  /// \brief Runs fn(i) for every i in [0, n), blocking until done. Work is
  /// split into contiguous chunks (one per worker); the first exception
  /// thrown by any chunk is rethrown in the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// \brief Runs fn(i) for every i in [0, n) with item-granular work
  /// stealing, blocking until done. The caller drains the shared index
  /// counter alongside num_threads() - 1 helpers, so at most num_threads()
  /// items run at once and progress is guaranteed even when every worker
  /// is busy (no nested-wait deadlock). Used for the per-attribute encode
  /// and induction jobs of Auditor::Induce and the streaming pin window;
  /// callers keep determinism by writing results to pre-assigned slots.
  /// The first exception thrown by any item is rethrown in the caller
  /// after the batch completes.
  void RunBatch(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// \brief pool->RunBatch(n, fn), or fn(i) for i in [0, n) inline when
/// `pool` is null.
void RunBatch(ThreadPool* pool, size_t n,
              const std::function<void(size_t)>& fn);

/// \brief One-shot data-parallel loop: runs fn(i) for i in [0, n) on
/// `num_threads` (0 = hardware concurrency). Executes inline when a pool
/// would not help.
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace dq

#endif  // DQ_COMMON_PARALLEL_H_
