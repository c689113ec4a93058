#include "hpo/pasha.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "hpo/asha.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

TEST(RankingDisagreesTest, AgreementMeansNoGrowth) {
  // Same order in both rungs.
  EXPECT_FALSE(RankingDisagrees({0.9, 0.5, 0.1}, {0.8, 0.6, 0.2}, 0.01));
}

TEST(RankingDisagreesTest, ConfidentSwapTriggersGrowth) {
  EXPECT_TRUE(RankingDisagrees({0.9, 0.1}, {0.1, 0.9}, 0.01));
}

TEST(RankingDisagreesTest, SoftTiesMayReorderFreely) {
  // The lower-rung gap (0.005) is inside the tolerance: reordering in the
  // upper rung is not a disagreement.
  EXPECT_FALSE(RankingDisagrees({0.500, 0.505}, {0.7, 0.2}, 0.01));
}

TEST(RankingDisagreesTest, MixedPairsDetected) {
  // First pair agrees; second pair (indices 0 and 2) swaps confidently.
  EXPECT_TRUE(RankingDisagrees({0.9, 0.8, 0.1}, {0.3, 0.25, 0.9}, 0.01));
}

TEST(PashaTest, NoiselessFindsGoodArmWithFewerInstances) {
  ConfigSpace space = QualitySpace(10);
  FakeStrategy pasha_strategy(0.0);
  PashaOptions options;
  options.max_jobs = 60;
  options.min_budget = 50;
  Pasha pasha(&space, &pasha_strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(1);
  HpoResult result = pasha.Optimize(data, &rng).value();
  double q = ParseDouble(result.best_config.Get("q").value()).value();
  EXPECT_GE(q, 0.7);

  // Noiseless evaluations never disagree between rungs, so PASHA must stay
  // on the short ladder: no evaluation above rung 1's budget (100).
  for (const auto& rec : result.history) {
    EXPECT_LE(rec.budget, 100u);
  }
}

TEST(PashaTest, NoisyEvaluationsUnlockHigherRungs) {
  ConfigSpace space = QualitySpace(6);
  FakeStrategy strategy(2.0);  // Strong noise: rung rankings disagree.
  PashaOptions options;
  options.max_jobs = 80;
  options.min_budget = 50;
  Pasha pasha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(2);
  HpoResult result = pasha.Optimize(data, &rng).value();
  size_t max_budget = 0;
  for (const auto& rec : result.history) {
    max_budget = std::max(max_budget, rec.budget);
  }
  EXPECT_GT(max_budget, 100u);  // The ladder grew.
}

TEST(PashaTest, RunsExactlyMaxJobs) {
  ConfigSpace space = QualitySpace(5);
  FakeStrategy strategy(0.5);
  PashaOptions options;
  options.max_jobs = 30;
  Pasha pasha(&space, &strategy, options);
  Dataset data = BudgetDataset(400);
  Rng rng(3);
  HpoResult result = pasha.Optimize(data, &rng).value();
  EXPECT_EQ(result.num_evaluations, 30u);
}

TEST(PashaTest, UsesFewerTotalInstancesThanAsha) {
  // PASHA's selling point: with stable rankings it avoids the expensive
  // high rungs, so the instance bill stays below a full-ladder ASHA's.
  ConfigSpace space = QualitySpace(8);
  Dataset data = BudgetDataset(1600);

  FakeStrategy pasha_strategy(0.0);
  PashaOptions options;
  options.max_jobs = 50;
  options.min_budget = 50;
  Pasha pasha(&space, &pasha_strategy, options);
  Rng rng1(4);
  HpoResult pasha_result = pasha.Optimize(data, &rng1).value();

  FakeStrategy asha_strategy(0.0);
  AshaOptions asha_options;
  asha_options.max_jobs = 50;
  asha_options.min_budget = 50;
  Asha asha(&space, &asha_strategy, asha_options);
  Rng rng2(4);
  HpoResult asha_result = asha.Optimize(data, &rng2).value();

  EXPECT_LT(pasha_result.total_instances, asha_result.total_instances);
}

// Fails (demotably) every evaluation above `max_ok_budget`.
class FailAboveBudget : public FakeStrategy {
 public:
  FailAboveBudget(double noise, size_t max_ok_budget)
      : FakeStrategy(noise), max_ok_budget_(max_ok_budget) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    if (budget > max_ok_budget_) return Status::Internal("injected failure");
    return FakeStrategy::Evaluate(config, train, budget, rng);
  }

 private:
  size_t max_ok_budget_;
};

TEST(PashaTest, AllFailedTopRungFallsBackToHighestHealthyRung) {
  // Noise grows the ladder past rung 1 (budget 100), and every evaluation
  // up there fails. The incumbent must come from rung 1, the highest rung
  // with a healthy entry, never be a demoted -inf sentinel.
  ConfigSpace space = QualitySpace(6);
  FailAboveBudget strategy(2.0, 100);
  PashaOptions options;
  options.max_jobs = 80;
  options.min_budget = 50;
  Pasha pasha(&space, &strategy, options);
  Dataset data = BudgetDataset(800);
  Rng rng(2);
  HpoResult result = pasha.Optimize(data, &rng).value();

  bool top_rung_failed = false;
  double best_rung1 = -std::numeric_limits<double>::infinity();
  for (const auto& rec : result.history) {
    if (rec.eval_failed) top_rung_failed = true;
    if (!rec.eval_failed && rec.budget == 100) {
      best_rung1 = std::max(best_rung1, rec.score);
    }
  }
  ASSERT_TRUE(top_rung_failed);
  EXPECT_TRUE(std::isfinite(result.best_score));
  EXPECT_EQ(result.best_score, best_rung1);
}

TEST(PashaTest, RejectsNullRng) {
  ConfigSpace space = QualitySpace(4);
  FakeStrategy strategy(0.0);
  Pasha pasha(&space, &strategy);
  Dataset data = BudgetDataset(100);
  EXPECT_FALSE(pasha.Optimize(data, nullptr).ok());
}

}  // namespace
}  // namespace bhpo
