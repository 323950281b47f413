#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ndpgen::support {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto a = pool.submit([] { return 21 * 2; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  // Many more tasks than threads: every one must still run before the
  // pool is destroyed (futures resolved afterwards).
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&ran] { ++ran; }));
    }
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, TaskExceptionPoisonsOnlyItsFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survived the throwing task; the pool still executes work.
  EXPECT_EQ(good.get(), 7);
  EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForResultIndependentOfThreadCount) {
  // Each job writes only its own slot, so any thread count produces the
  // same output — the property the sharded scan engine relies on.
  std::vector<std::uint64_t> one(32), many(32);
  {
    ThreadPool pool(1);
    parallel_for(pool, one.size(),
                 [&one](std::size_t i) { one[i] = i * i + 1; });
  }
  {
    ThreadPool pool(8);
    parallel_for(pool, many.size(),
                 [&many](std::size_t i) { many[i] = i * i + 1; });
  }
  EXPECT_EQ(one, many);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      parallel_for(pool, 16, [](std::size_t i) {
        if (i == 3 || i == 11) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& error) {
      // Deterministic: always the lowest failing index, regardless of
      // which thread finished first.
      EXPECT_STREQ(error.what(), "job 3");
    }
  }
}

TEST(ThreadPool, ParallelForSurvivesExceptionAndPoolRemainsUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 8,
                   [](std::size_t) { throw std::runtime_error("all fail"); }),
      std::runtime_error);
  std::atomic<int> ran{0};
  parallel_for(pool, 8, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, DefaultThreadsNeverZeroNeverMoreThanJobs) {
  EXPECT_EQ(ThreadPool::default_threads(0), 1u);
  EXPECT_EQ(ThreadPool::default_threads(1), 1u);
  EXPECT_LE(ThreadPool::default_threads(2), 2u);
  EXPECT_GE(ThreadPool::default_threads(1024), 1u);
}

TEST(ThreadPool, CappedThreadsNeverMoreThanJobs) {
  EXPECT_EQ(ThreadPool::capped_threads(64, 2), 2u);
  EXPECT_EQ(ThreadPool::capped_threads(4'294'967'295u, 4), 4u);
  EXPECT_EQ(ThreadPool::capped_threads(3, 4), 3u);
  EXPECT_EQ(ThreadPool::capped_threads(1, 4), 1u);
  EXPECT_EQ(ThreadPool::capped_threads(8, 0), 1u);
  EXPECT_EQ(ThreadPool::capped_threads(0, 2),
            ThreadPool::default_threads(2));
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool pool(0), ndpgen::Error);
}

}  // namespace
}  // namespace ndpgen::support
