// Tests for the thread pool and the deterministic-seeding helpers that the
// parallel audit pipeline builds on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"

namespace dq {
namespace {

TEST(ResolveThreadCountTest, AutoMapsToHardware) {
  EXPECT_EQ(ResolveThreadCount(0), HardwareThreads());
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ResolveThreadCountTest, NegativeMapsToHardwareDefault) {
  // Negative and zero requests normalize to the same documented behavior
  // (the hardware default) across every CLI and ThreadPool construction.
  EXPECT_EQ(ResolveThreadCount(-1), HardwareThreads());
  EXPECT_EQ(ResolveThreadCount(-100), HardwareThreads());
}

TEST(ResolveThreadCountTest, PositivePassesThrough) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
}

TEST(ThreadPoolTest, SubmittedTasksRun) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FutureCarriesException) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("bad index");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, RunBatchRunsAtMostPoolSizeItemsAtOnce) {
  // The caller drains the batch alongside the helpers, so a pool of two
  // must never have a third item in flight.
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  std::vector<int> hits(16, 0);
  pool.RunBatch(hits.size(), [&](size_t i) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++hits[i];
    in_flight.fetch_sub(1);
  });
  EXPECT_EQ(hits, std::vector<int>(16, 1));
  EXPECT_LE(peak.load(), 2);
}

TEST(FreeParallelForTest, InlineAndPooledCoverTheSameIndices) {
  for (int threads : {1, 2, 4}) {
    std::vector<int> hits(257, 0);
    ParallelFor(threads, hits.size(), [&](size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
        << "threads=" << threads;
  }
}

TEST(FreeParallelForTest, MoreThreadsThanItems) {
  std::vector<int> hits(3, 0);
  ParallelFor(16, hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(TaskSeedTest, DeterministicAcrossCalls) {
  EXPECT_EQ(TaskSeed(42, 7), TaskSeed(42, 7));
  EXPECT_EQ(TaskSeed(0, 0), TaskSeed(0, 0));
}

TEST(TaskSeedTest, DistinctTasksGetDistinctSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t task = 0; task < 1000; ++task) {
    seeds.insert(TaskSeed(2003, task));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(TaskSeedTest, DistinctBasesDecorrelate) {
  // Child streams from different base seeds should not collide even for
  // the same task ids.
  std::set<uint64_t> seeds;
  for (uint64_t base = 0; base < 100; ++base) {
    for (uint64_t task = 0; task < 10; ++task) {
      seeds.insert(TaskSeed(base, task));
    }
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(TaskSeedTest, SeedsDriveIndependentRngStreams) {
  Rng a(TaskSeed(1, 0));
  Rng b(TaskSeed(1, 1));
  // Streams should diverge immediately (probabilistically certain).
  bool differs = false;
  for (int i = 0; i < 8 && !differs; ++i) {
    differs = a.UniformInt(0, 1'000'000) != b.UniformInt(0, 1'000'000);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace dq
