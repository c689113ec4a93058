#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, SingleWorkerFallbackIsSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(10, [&order](size_t i) {
    order.push_back(static_cast<int>(i));  // Safe: serial path.
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// A ParallelFor issued from inside a pool worker must complete instead of
// deadlocking: the worker helps drain the queue while its batch is pending.
// 8 outer tasks each spawning 16 inner iterations on 4 threads guarantees
// every worker is inside a nested call at some point.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(4);
  std::atomic<int> inner_hits{0};
  pool.ParallelFor(8, [&pool, &inner_hits](size_t) {
    pool.ParallelFor(16, [&inner_hits](size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 8 * 16);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.ParallelFor(4, [&pool, &hits](size_t) {
    pool.ParallelFor(4, [&pool, &hits](size_t) {
      pool.ParallelFor(4, [&hits](size_t) { hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(hits.load(), 4 * 4 * 4);
}

TEST(ThreadPoolTest, DestructionJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(10, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace bhpo
