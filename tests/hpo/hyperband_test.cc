#include "hpo/hyperband.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(RandomConfigSamplerTest, SamplesFromSpace) {
  ConfigSpace space = QualitySpace(5);
  RandomConfigSampler sampler(&space);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    Configuration c = sampler.Sample(&rng);
    double q = ParseDouble(c.Get("q").value()).value();
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 0.4 + 1e-9);
  }
}

TEST(HyperbandTest, NoiselessFindsTopTierArm) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  RandomConfigSampler sampler(&space);
  Hyperband hb(&sampler, &strategy);
  Dataset data = BudgetDataset(810);
  Rng rng(2);
  HpoResult result = hb.Optimize(data, &rng).value();
  // Noiseless scores: the winner is the best configuration Hyperband ever
  // sampled, which with dozens of samples over 10 arms is the top arm with
  // overwhelming probability.
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.8);
  EXPECT_DOUBLE_EQ(result.best_score, q);
}

TEST(HyperbandTest, BestComesFromFullBudgetEvaluation) {
  ConfigSpace space = QualitySpace(6);
  FakeStrategy strategy(0.5);
  RandomConfigSampler sampler(&space);
  Hyperband hb(&sampler, &strategy);
  Dataset data = BudgetDataset(500);
  Rng rng(3);
  HpoResult result = hb.Optimize(data, &rng).value();
  // At least one history record at full budget matching best_score.
  bool found = false;
  for (const auto& rec : result.history) {
    if (rec.budget == 500u && rec.score == result.best_score) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(HyperbandTest, RunsMultipleBracketsWithDecreasingStartCounts) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  RandomConfigSampler sampler(&space);
  HyperbandOptions options;
  options.eta = 3;
  options.min_budget = 30;  // R/r = 810/30 = 27 -> s_max = 3: 4 brackets.
  Hyperband hb(&sampler, &strategy, options);
  Dataset data = BudgetDataset(810);
  Rng rng(4);
  HpoResult result = hb.Optimize(data, &rng).value();
  // Bracket s=3 starts 9+ configs at budget 30; bracket s=0 runs ~4 configs
  // straight at 810. Total evaluations well above a single SHA run.
  EXPECT_GT(result.num_evaluations, 20u);
  // Smallest budget seen is the min_budget (clamped by eval floor).
  size_t min_seen = data.n();
  for (const auto& rec : result.history) {
    min_seen = std::min(min_seen, rec.budget);
  }
  EXPECT_EQ(min_seen, 30u);
}

TEST(HyperbandTest, ObserverReceivesEveryEvaluation) {
  class CountingSampler : public RandomConfigSampler {
   public:
    using RandomConfigSampler::RandomConfigSampler;
    void Observe(const Configuration&, double, size_t) override { ++seen; }
    int seen = 0;
  };
  ConfigSpace space = QualitySpace(5);
  FakeStrategy strategy(0.0);
  CountingSampler sampler(&space);
  Hyperband hb(&sampler, &strategy);
  Dataset data = BudgetDataset(400);
  Rng rng(5);
  HpoResult result = hb.Optimize(data, &rng).value();
  EXPECT_EQ(sampler.seen, static_cast<int>(result.num_evaluations));
}

TEST(HyperbandTest, FailedFullBudgetFallsBackToHighestHealthyBudget) {
  // Only the full-budget evaluations fail. The incumbent is the best entry
  // at the highest budget that has a healthy one, the earliest on ties.
  ConfigSpace space = QualitySpace(6);
  const size_t n = 810;
  FailAboveBudgetStrategy strategy(0.5, n - 1);
  RandomConfigSampler sampler(&space);
  Hyperband hb(&sampler, &strategy);
  Dataset data = BudgetDataset(n);
  Rng rng(6);
  Result<HpoResult> run = hb.Optimize(data, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const HpoResult& result = run.value();

  const EvaluationRecord* expected = nullptr;
  size_t demoted = 0;
  for (const EvaluationRecord& rec : result.history) {
    if (rec.eval_failed) {
      ++demoted;
      continue;
    }
    if (expected == nullptr || rec.budget > expected->budget ||
        (rec.budget == expected->budget && rec.score > expected->score)) {
      expected = &rec;
    }
  }
  ASSERT_GT(demoted, 0u);
  EXPECT_EQ(result.faults.failed_evals, demoted);
  ASSERT_NE(expected, nullptr);
  EXPECT_LT(expected->budget, n);
  EXPECT_TRUE(std::isfinite(result.best_score));
  EXPECT_EQ(result.best_score, expected->score);
  EXPECT_TRUE(result.best_config == expected->config);
}

TEST(HyperbandTest, RejectsNullRng) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  RandomConfigSampler sampler(&space);
  Hyperband hb(&sampler, &strategy);
  Dataset data = BudgetDataset(100);
  EXPECT_FALSE(hb.Optimize(data, nullptr).ok());
}

}  // namespace
}  // namespace bhpo
