// Contended stress for the concurrency-bearing pieces: nested
// ThreadPool::ParallelFor (the shape of Hyperband's rung-parallel
// evaluation over fold-parallel CV) and the sharded EvalCache hammered on
// a single shard. These run in tier-1 as plain correctness checks and are
// re-registered by the tsan preset, where -fsanitize=thread turns every
// unsynchronized access into a failure.
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "hpo/eval_cache.h"

namespace bhpo {
namespace {

// Two-level ParallelFor from inside pool workers: outer iterations issue
// inner loops, so workers must help drain the queue instead of blocking.
void RunNestedParallelFor(size_t pool_size) {
  ThreadPool pool(pool_size);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kOuter, [&](size_t i) {
    pool.ParallelFor(kInner, [&](size_t j) {
      sum.fetch_add(i * kInner + j + 1, std::memory_order_relaxed);
    });
  });
  uint64_t n = kOuter * kInner;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(ConcurrencyStressTest, NestedParallelForPool1) {
  RunNestedParallelFor(1);
}

TEST(ConcurrencyStressTest, NestedParallelForPool8) {
  RunNestedParallelFor(8);
}

TEST(ConcurrencyStressTest, TripleNestedParallelForPool8) {
  ThreadPool pool(8);
  std::atomic<uint64_t> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(8, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(count.load(), 8u * 8u * 8u);
}

// Up to 8 concurrent lanes contending on the eval cache's one mutex.
// Counter totals must add up exactly once the lanes quiesce.
void HammerCache(size_t lanes) {
  EvalCache cache;

  constexpr size_t kIters = 2000;
  constexpr uint64_t kDistinctKeys = 64;
  ThreadPool pool(lanes);
  pool.ParallelFor(lanes, [&](size_t lane) {
    for (size_t i = 0; i < kIters; ++i) {
      uint64_t key = (lane * kIters + i) % kDistinctKeys;
      if (!cache.LookupFold(key, /*subset_id=*/1, /*fold=*/0).has_value()) {
        cache.InsertFold(key, 1, 0, EvalCache::FoldScore{0.5, false});
      }
      if (!cache.LookupResult(key, /*subset_id=*/2).has_value()) {
        cache.InsertResult(key, 2, EvalResult{});
      }
    }
  });

  EvalCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.fold_hits + stats.fold_misses, lanes * kIters);
  EXPECT_EQ(stats.result_hits + stats.result_misses, lanes * kIters);
  // Every distinct (key, kind) pair is stored exactly once: two lanes that
  // both miss a key write the same entry, and nothing is ever evicted.
  EXPECT_EQ(stats.entries, 2 * kDistinctKeys);
  EXPECT_EQ(stats.hits() + stats.misses(), 2 * lanes * kIters);
}

TEST(EvalCacheStressTest, SingleShardHammerPool1) { HammerCache(1); }

TEST(EvalCacheStressTest, SingleShardHammerPool8) { HammerCache(8); }

TEST(EvalCacheStressTest, StatsReadableWhileWritersRun) {
  EvalCache cache;
  constexpr size_t kWriters = 7;
  constexpr size_t kKeysPerWriter = 3000;

  ThreadPool pool(8);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  // One reader lane polls Stats() while the other lanes write; TSan
  // verifies the reads are race-free. Stats() takes the cache's lock, so
  // every snapshot is consistent: each entry was stored after its miss was
  // counted, and residency only grows.
  pool.ParallelFor(kWriters + 1, [&](size_t lane) {
    if (lane == 0) {
      size_t last_entries = 0;
      while (!done.load(std::memory_order_acquire)) {
        EvalCacheStats snapshot = cache.Stats();
        EXPECT_LE(snapshot.entries, snapshot.fold_misses);
        EXPECT_GE(snapshot.entries, last_entries);
        last_entries = snapshot.entries;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    for (size_t i = 0; i < kKeysPerWriter; ++i) {
      uint64_t key = lane * 10000 + i;
      if (!cache.LookupFold(key, 1, 0).has_value()) {
        cache.InsertFold(key, 1, 0, EvalCache::FoldScore{1.0, false});
      }
    }
    if (lane == 1) done.store(true, std::memory_order_release);
  });
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(cache.Stats().entries, kWriters * kKeysPerWriter);
}

}  // namespace
}  // namespace bhpo
