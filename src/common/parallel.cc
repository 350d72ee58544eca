#include "common/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/random.h"

namespace dq {

namespace {

std::atomic<uint64_t> g_pools_created{0};
std::atomic<uint64_t> g_tasks_executed{0};
std::atomic<uint64_t> g_peak_queue_depth{0};

void UpdatePeakQueueDepth(uint64_t depth) {
  uint64_t peak = g_peak_queue_depth.load(std::memory_order_relaxed);
  while (depth > peak && !g_peak_queue_depth.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

PoolStats GlobalPoolStats() {
  PoolStats stats;
  stats.pools_created = g_pools_created.load(std::memory_order_relaxed);
  stats.tasks_executed = g_tasks_executed.load(std::memory_order_relaxed);
  stats.peak_queue_depth =
      g_peak_queue_depth.load(std::memory_order_relaxed);
  return stats;
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int requested) {
  // Zero and negative both mean "hardware default": every CLI and pool
  // constructor funnels through here, so the normalization is uniform
  // instead of tool-by-tool ad hoc (negatives used to clamp to 1 while 0
  // meant auto — two undocumented behaviors for one misconfiguration).
  if (requested <= 0) return HardwareThreads();
  return requested;
}

uint64_t TaskSeed(uint64_t base_seed, uint64_t task_id) {
  // Child stream: mix the task id into a decorrelated lane, then mix again
  // with the base so adjacent (seed, id) pairs never share prefixes.
  return SplitMix64(SplitMix64(base_seed) ^
                    SplitMix64(task_id + 0x9e3779b97f4a7c15ULL));
}

ThreadPool::ThreadPool(int num_threads) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  const int n = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    UpdatePeakQueueDepth(queue_.size());
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
    g_tasks_executed.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks =
      std::min<size_t>(static_cast<size_t>(num_threads()), n);
  if (chunks <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    futures.push_back(Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared-state batch: helpers and the caller race on `next`; whoever
  // claims an index runs it. The state is a shared_ptr so a helper task
  // that only gets scheduled after the batch finished (all indices
  // claimed) still has a valid counter to bounce off -- it must not touch
  // `fn`, which dies when this frame returns.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->fn = &fn;
  auto drain = [state] {
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) break;
      try {
        (*state->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      // acq_rel: item results written above become visible to the caller,
      // which acquires `done` below before reading any slot.
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };
  // The caller drains too, so num_threads() - 1 helpers keep at most
  // num_threads() items in flight.
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(num_threads()) - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

void RunBatch(ThreadPool* pool, size_t n,
              const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->RunBatch(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  const int threads = ResolveThreadCount(num_threads);
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(n, fn);
}

}  // namespace dq
