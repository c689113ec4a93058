#include "hpo/asha.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(AshaTest, NoiselessFindsGoodArm) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy strategy(0.0);
  AshaOptions options;
  options.max_jobs = 80;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(1);
  HpoResult result = asha.Optimize(data, &rng).value();
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.7);
}

TEST(AshaTest, RunsExactlyMaxJobs) {
  ConfigSpace space = QualitySpace(5);
  FakeStrategy strategy(0.0);
  AshaOptions options;
  options.max_jobs = 25;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(400);
  Rng rng(2);
  HpoResult result = asha.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 25u);
}

TEST(AshaTest, PromotionsReachHigherBudgets) {
  ConfigSpace space = QualitySpace(6);
  FakeStrategy strategy(0.0);
  AshaOptions options;
  options.max_jobs = 60;
  options.min_budget = 50;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(3);
  HpoResult result = asha.Optimize(data, &rng).value();
  size_t max_budget = 0;
  for (const auto& rec : result.history) {
    max_budget = std::max(max_budget, rec.budget);
  }
  EXPECT_EQ(max_budget, 800u);  // Some config reached the top rung.
}

TEST(AshaTest, EarlyJobsStartAtRungZero) {
  ConfigSpace space = QualitySpace(6);
  FakeStrategy strategy(0.0);
  AshaOptions options;
  options.max_jobs = 10;
  options.min_budget = 50;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(4);
  HpoResult result = asha.Optimize(data, &rng).value();
  EXPECT_EQ(result.history.front().budget, 50u);
}

TEST(AshaTest, FewJobsFallsBackToBestPopulatedRung) {
  ConfigSpace space = QualitySpace(6);
  FakeStrategy strategy(0.0);
  AshaOptions options;
  options.max_jobs = 2;  // Nothing can reach the top rung.
  options.min_budget = 20;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(2000);
  Rng rng(5);
  HpoResult result = asha.Optimize(data, &rng).value();
  EXPECT_TRUE(result.best_config.Has("q"));
}

TEST(AshaTest, DemotedTopRungsFallBackToBestHealthyRung) {
  // Ladder 50 / 100 / 200 / 400 / 800. Every evaluation above budget 100
  // fails, so rung 2 holds only demoted sentinels when the jobs run out.
  // The incumbent must be the best healthy rung-1 entry, not a -inf
  // sentinel from rung 2.
  ConfigSpace space = QualitySpace(6);
  FailAboveBudgetStrategy strategy(0.0, 100);
  AshaOptions options;
  options.max_jobs = 8;
  options.min_budget = 50;
  Asha asha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(5);
  HpoResult result = asha.Optimize(data, &rng).value();

  bool demoted = false;
  const EvaluationRecord* best_rung1 = nullptr;
  for (const EvaluationRecord& rec : result.history) {
    if (rec.eval_failed) demoted = true;
    if (!rec.eval_failed && rec.budget == 100 &&
        (best_rung1 == nullptr || rec.score > best_rung1->score)) {
      best_rung1 = &rec;
    }
  }
  ASSERT_TRUE(demoted);
  ASSERT_NE(best_rung1, nullptr);
  EXPECT_TRUE(std::isfinite(result.best_score));
  EXPECT_EQ(result.best_score, best_rung1->score);
  EXPECT_TRUE(result.best_config == best_rung1->config);
}

TEST(AshaTest, RejectsNullRng) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  Asha asha(&space, &strategy);
  Dataset data = BudgetDataset(100);
  EXPECT_FALSE(asha.Optimize(data, nullptr).ok());
}

}  // namespace
}  // namespace bhpo
