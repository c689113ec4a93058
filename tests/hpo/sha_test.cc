#include "hpo/sha.h"

#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "hpo/checkpoint.h"
#include "hpo/eval_cache.h"
#include "hpo/eval_strategy.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(TopIndicesByScoreTest, RanksDescendingAndStable) {
  std::vector<double> scores = {0.5, 0.9, 0.9, 0.1};
  std::vector<size_t> top = TopIndicesByScore(scores, 3);
  EXPECT_EQ(top, (std::vector<size_t>{1, 2, 0}));  // Stable tie at 0.9.
}

TEST(TopIndicesByScoreTest, KeepClampedToSize) {
  std::vector<double> scores = {0.1, 0.2};
  EXPECT_EQ(TopIndicesByScore(scores, 10).size(), 2u);
}

TEST(ShaTest, NoiselessPicksTheBestArm) {
  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(800);
  Rng rng(1);
  HpoResult result = sha.Optimize(data, &rng).value();
  EXPECT_EQ(result.best_config.Get("q").value(), "0.70");  // Highest quality.
  EXPECT_NEAR(result.best_score, 0.7, 1e-9);
}

TEST(ShaTest, HalvingScheduleMatchesFigure1) {
  // 8 configs, eta = 2: rungs of 8, 4, 2 evaluations then 1 survivor.
  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(800);
  Rng rng(2);
  HpoResult result = sha.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 8u + 4u + 2u);
  // Budgets per rung: B/8, B/4, B/2 (Figure 1's 1/8, 1/4, 1/2 shares).
  EXPECT_EQ(result.history[0].budget, 100u);
  EXPECT_EQ(result.history[8].budget, 200u);
  EXPECT_EQ(result.history[12].budget, 400u);
}

TEST(ShaTest, BudgetGrowsAsCandidatesShrink) {
  ConfigSpace space = QualitySpace(16);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(1600);
  Rng rng(3);
  HpoResult result = sha.Optimize(data, &rng).value();
  size_t prev_budget = 0;
  for (size_t i = 0; i + 1 < result.history.size(); ++i) {
    EXPECT_GE(result.history[i + 1].budget, result.history[i].budget);
    prev_budget = result.history[i].budget;
  }
  (void)prev_budget;
}

TEST(ShaTest, EtaFourKeepsQuarter) {
  ConfigSpace space = QualitySpace(16);
  FakeStrategy strategy(0.0);
  ShaOptions options;
  options.eta = 4;
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy, options);
  Dataset data = BudgetDataset(1600);
  Rng rng(4);
  HpoResult result = sha.Optimize(data, &rng).value();
  // Rungs: 16 -> 4 -> 1, so 16 + 4 evaluations.
  EXPECT_EQ(result.num_evaluations, 20u);
  EXPECT_EQ(result.best_config.Get("q").value(), "1.50");
}

TEST(ShaTest, SingleCandidateEvaluatedAtFullBudget) {
  ConfigSpace space = QualitySpace(1);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(100);
  Rng rng(5);
  HpoResult result = sha.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 1u);
  EXPECT_EQ(result.history[0].budget, 100u);
}

TEST(ShaTest, NoisyEvaluationCanDropGoodArmsButStillReturnsSomething) {
  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(3.0);  // Very noisy at small budgets.
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(400);
  Rng rng(6);
  HpoResult result = sha.Optimize(data, &rng).value();
  EXPECT_TRUE(result.best_config.Has("q"));
  EXPECT_EQ(result.history.size(), result.num_evaluations);
}

TEST(ShaTest, TotalInstancesAccountedFor) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(400);
  Rng rng(7);
  HpoResult result = sha.Optimize(data, &rng).value();
  size_t total = 0;
  for (const auto& rec : result.history) total += rec.budget;
  EXPECT_EQ(result.total_instances, total);
}

TEST(ShaTest, ParallelPoolMatchesSerialResult) {
  // Same seed, with and without a worker pool: identical winner and
  // history scores (per-candidate RNG forking decouples results from
  // scheduling).
  ConfigSpace space = QualitySpace(8);
  Dataset data = BudgetDataset(800);

  FakeStrategy serial_strategy(0.7);
  SuccessiveHalving serial(space.EnumerateGrid(), &serial_strategy);
  Rng rng_serial(11);
  HpoResult serial_result = serial.Optimize(data, &rng_serial).value();

  ThreadPool pool(4);
  FakeStrategy parallel_strategy(0.7);
  ShaOptions options;
  options.pool = &pool;
  SuccessiveHalving parallel(space.EnumerateGrid(), &parallel_strategy,
                             options);
  Rng rng_parallel(11);
  HpoResult parallel_result = parallel.Optimize(data, &rng_parallel).value();

  EXPECT_TRUE(serial_result.best_config == parallel_result.best_config);
  ASSERT_EQ(serial_result.history.size(), parallel_result.history.size());
  for (size_t i = 0; i < serial_result.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial_result.history[i].score,
                     parallel_result.history[i].score);
  }
}

// Full two-level parallelism (configs across the rung, folds within each
// config, one shared pool) must give the same search result for any pool
// size: per-candidate forked RNGs plus MixSeed-derived per-fold model seeds
// make the outcome scheduling independent.
TEST(ShaTest, TwoLevelParallelismIsPoolSizeInvariant) {
  BlobsSpec spec;
  spec.n = 100;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 13;
  Dataset data = MakeBlobs(spec).value().Standardized();

  std::vector<Configuration> configs;
  for (const char* lr : {"0.05", "0.01", "0.005", "0.001"}) {
    Configuration config;
    config.Set("hidden_layer_sizes", "(6)");
    config.Set("learning_rate_init", lr);
    configs.push_back(config);
  }

  auto run = [&](size_t threads) {
    std::unique_ptr<ThreadPool> pool;
    StrategyOptions strategy_options;
    strategy_options.factory.max_iter = 8;
    ShaOptions sha_options;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      strategy_options.cv_pool = pool.get();
      sha_options.pool = pool.get();
    }
    VanillaStrategy strategy(strategy_options);
    SuccessiveHalving sha(configs, &strategy, sha_options);
    Rng rng(21);
    return sha.Optimize(data, &rng).value();
  };

  HpoResult base = run(0);  // No pool at all: fully serial reference.
  for (size_t threads : {1u, 2u, 8u}) {
    HpoResult result = run(threads);
    EXPECT_TRUE(result.best_config == base.best_config)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(result.best_score, base.best_score);
    ASSERT_EQ(result.history.size(), base.history.size());
    for (size_t i = 0; i < base.history.size(); ++i) {
      EXPECT_DOUBLE_EQ(result.history[i].score, base.history[i].score)
          << threads << " threads, eval " << i;
    }
  }
}

// Cache on vs off must be invisible in the results: same incumbent, same
// score, same history, at any pool size. Exercises both cache layers (the
// fold-level cache inside VanillaStrategy and the CachingStrategy
// decorator) against real model training.
TEST(ShaTest, CacheOnMatchesCacheOffBitExactly) {
  BlobsSpec spec;
  spec.n = 100;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.seed = 13;
  Dataset data = MakeBlobs(spec).value().Standardized();

  std::vector<Configuration> configs;
  for (const char* lr : {"0.05", "0.01", "0.005", "0.001"}) {
    Configuration config;
    config.Set("hidden_layer_sizes", "(6)");
    config.Set("learning_rate_init", lr);
    configs.push_back(config);
  }

  auto run = [&](bool use_cache, size_t threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    EvalCache cache;
    StrategyOptions strategy_options;
    strategy_options.factory.max_iter = 8;
    strategy_options.cv_pool = pool.get();
    if (use_cache) strategy_options.cache = &cache;
    VanillaStrategy inner(strategy_options);
    std::unique_ptr<CachingStrategy> caching;
    EvalStrategy* strategy = &inner;
    if (use_cache) {
      caching = std::make_unique<CachingStrategy>(&inner, &cache);
      strategy = caching.get();
    }
    ShaOptions sha_options;
    sha_options.pool = pool.get();
    SuccessiveHalving sha(configs, strategy, sha_options);
    Rng rng(21);
    return sha.Optimize(data, &rng).value();
  };

  for (size_t threads : {1u, 8u}) {
    HpoResult off = run(false, threads);
    HpoResult on = run(true, threads);
    EXPECT_TRUE(off.best_config == on.best_config) << threads << " threads";
    EXPECT_EQ(off.best_score, on.best_score) << threads << " threads";
    ASSERT_EQ(off.history.size(), on.history.size());
    for (size_t i = 0; i < off.history.size(); ++i) {
      EXPECT_EQ(off.history[i].score, on.history[i].score)
          << threads << " threads, eval " << i;
      EXPECT_EQ(off.history[i].budget, on.history[i].budget)
          << threads << " threads, eval " << i;
    }
  }
}

// Runs a noisy 8-arm SHA, checkpointing every rung to `path` (none when
// empty).
HpoResult RunCheckpointedSha(const std::string& path,
                             const CheckpointState* resume) {
  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(0.5);
  ShaOptions options;
  options.checkpoint.path = path;
  options.checkpoint.resume = resume;
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(9);
  return sha.Optimize(data, &rng).value();
}

TEST(ShaTest, ResumeFromFinalCheckpointRebuildsTheWinner) {
  // The last checkpoint holds every rung: the resumed run evaluates
  // nothing and must rebuild the incumbent from the restored history.
  std::string path = ::testing::TempDir() + "/sha_final.ckpt";
  HpoResult full = RunCheckpointedSha(path, nullptr);
  CheckpointState state = LoadCheckpoint(path).value();
  ASSERT_EQ(state.survivors.size(), 1u);
  HpoResult resumed = RunCheckpointedSha("", &state);
  EXPECT_TRUE(resumed.best_config == full.best_config);
  EXPECT_EQ(resumed.best_score, full.best_score);
  EXPECT_EQ(resumed.history.size(), full.history.size());
  EXPECT_EQ(resumed.total_instances, full.total_instances);
}

TEST(ShaTest, ResumeRejectsHistoryThatDoesNotFitTheSchedule) {
  std::string path = ::testing::TempDir() + "/sha_mismatch.ckpt";
  RunCheckpointedSha(path, nullptr);
  CheckpointState state = LoadCheckpoint(path).value();
  state.history.pop_back();

  ConfigSpace space = QualitySpace(8);
  FakeStrategy strategy(0.5);
  ShaOptions options;
  options.checkpoint.resume = &state;
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(9);
  Result<HpoResult> resumed = sha.Optimize(data, &rng);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShaTest, RejectsNullRng) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  SuccessiveHalving sha(space.EnumerateGrid(), &strategy);
  Dataset data = BudgetDataset(100);
  EXPECT_FALSE(sha.Optimize(data, nullptr).ok());
}

}  // namespace
}  // namespace bhpo
