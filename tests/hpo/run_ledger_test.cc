// RunLedger: the one record-and-incumbent path behind every optimizer, and
// the one outcome every optimizer reports when all its evaluations fail.
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/checkpoint.h"
#include "hpo/dehb.h"
#include "hpo/hyperband.h"
#include "hpo/pasha.h"
#include "hpo/random_search.h"
#include "hpo/sha.h"
#include "hpo/smac.h"
#include "hpo/tpe_search.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

Configuration Arm(const std::string& q) {
  Configuration config;
  config.Set("q", q);
  return config;
}

EvalResult Healthy(double score, size_t budget) {
  EvalResult eval;
  eval.score = score;
  eval.budget_used = budget;
  return eval;
}

TEST(RunLedgerTest, RecordsHistoryCountersAndFaults) {
  RunLedger ledger;
  EvalResult folded = Healthy(0.5, 40);
  folded.cv.failed_folds = 2;
  folded.cv.quarantined_folds = 1;
  folded.cv.timed_out_folds = 1;
  folded.cv.fold_retries = 3;
  folded.cv.injected_faults = 4;
  ledger.Record(Arm("a"), 0, folded);
  ledger.Record(Arm("b"), 0, DemotedEvalResult());
  HpoResult result = std::move(ledger).Finish().value();

  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_TRUE(result.history[0].config == Arm("a"));
  EXPECT_EQ(result.history[0].budget, 40u);
  EXPECT_FALSE(result.history[0].eval_failed);
  EXPECT_TRUE(result.history[1].eval_failed);
  EXPECT_EQ(result.num_evaluations, 2u);
  EXPECT_EQ(result.total_instances, 40u);
  EXPECT_EQ(result.faults.failed_evals, 1u);
  EXPECT_EQ(result.faults.failed_folds, 2u);
  EXPECT_EQ(result.faults.quarantined_folds, 1u);
  EXPECT_EQ(result.faults.timed_out_folds, 1u);
  EXPECT_EQ(result.faults.fold_retries, 3u);
  EXPECT_EQ(result.faults.injected_faults, 4u);
  EXPECT_TRUE(result.best_config == Arm("a"));
  EXPECT_EQ(result.best_score, 0.5);
}

TEST(RunLedgerTest, HighestHealthyRungWinsOverBetterLowerScores) {
  RunLedger ledger;
  ledger.Record(Arm("a"), 0, Healthy(0.9, 10));
  ledger.Record(Arm("b"), 1, Healthy(0.2, 20));
  ledger.Record(Arm("c"), 0, Healthy(0.95, 10));
  ledger.Record(Arm("d"), 2, DemotedEvalResult());
  HpoResult result = std::move(ledger).Finish().value();
  EXPECT_TRUE(result.best_config == Arm("b"));
  EXPECT_EQ(result.best_score, 0.2);
}

TEST(RunLedgerTest, EarliestEntryWinsTies) {
  RunLedger ledger;
  ledger.Record(Arm("a"), 1, Healthy(0.4, 20));
  ledger.Record(Arm("b"), 1, Healthy(0.7, 20));
  ledger.Record(Arm("c"), 1, Healthy(0.7, 20));
  HpoResult result = std::move(ledger).Finish().value();
  EXPECT_EQ(result.best_score, 0.7);
  EXPECT_TRUE(result.best_config == Arm("b"));
}

TEST(RunLedgerTest, RungNotReportedBudgetRanksEntries) {
  // Both evaluations report the same (clamped) budget; the one recorded at
  // the higher rung is the more trusted, whatever its score.
  RunLedger ledger;
  ledger.Record(Arm("a"), 0, Healthy(0.9, 30));
  ledger.Record(Arm("b"), 1, Healthy(0.1, 30));
  HpoResult result = std::move(ledger).Finish().value();
  EXPECT_TRUE(result.best_config == Arm("b"));
}

TEST(RunLedgerTest, AllDemotedIsUnavailable) {
  RunLedger ledger;
  ledger.Record(Arm("a"), 0, DemotedEvalResult());
  ledger.Record(Arm("b"), 1, DemotedEvalResult());
  Result<HpoResult> result = std::move(ledger).Finish();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RunLedgerTest, EmptyIsUnavailable) {
  Result<HpoResult> result = RunLedger().Finish();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(RunLedgerTest, SaveAndRestoreRebuildTheIncumbent) {
  RunLedger ledger;
  EvalResult faulty = Healthy(0.6, 20);
  faulty.cv.fold_retries = 2;
  ledger.Record(Arm("a"), 0, Healthy(0.8, 10));
  ledger.Record(Arm("b"), 0, Healthy(0.3, 10));
  ledger.Record(Arm("a"), 1, faulty);
  ledger.Record(Arm("b"), 1, DemotedEvalResult());
  CheckpointState state;
  ledger.SaveTo(&state);
  EXPECT_EQ(state.history.size(), 4u);
  EXPECT_EQ(state.num_evaluations, 4u);
  EXPECT_EQ(state.total_instances, 40u);
  EXPECT_EQ(state.faults.fold_retries, 2u);
  EXPECT_EQ(state.faults.failed_evals, 1u);

  RunLedger restored;
  restored.Restore(state, {0, 0, 1, 1});
  HpoResult a = std::move(ledger).Finish().value();
  HpoResult b = std::move(restored).Finish().value();
  EXPECT_TRUE(b.best_config == a.best_config);
  EXPECT_EQ(b.best_score, a.best_score);
  EXPECT_EQ(b.best_score, 0.6);
  EXPECT_EQ(b.num_evaluations, a.num_evaluations);
  EXPECT_EQ(b.total_instances, a.total_instances);
  EXPECT_EQ(b.faults.fold_retries, a.faults.fold_retries);
  EXPECT_EQ(b.faults.failed_evals, a.faults.failed_evals);
}

// --- Every optimizer, every evaluation failing -----------------------------

struct OptimizerCase {
  std::string name;
  std::function<std::unique_ptr<HpoOptimizer>(
      const ConfigSpace*, ConfigSampler*, EvalStrategy*)>
      make;
};

// gtest prints the parameter into every ctest name. Print the optimizer's
// name: the raw bytes hold pointers, which change from run to run.
void PrintTo(const OptimizerCase& c, std::ostream* os) { *os << c.name; }

std::vector<OptimizerCase> AllOptimizers() {
  return {
      {"Sha",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<SuccessiveHalving>(space->EnumerateGrid(),
                                                    strategy);
       }},
      {"Hyperband",
       [](const ConfigSpace*, ConfigSampler* sampler, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Hyperband>(sampler, strategy);
       }},
      {"Bohb",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Bohb>(space, strategy);
       }},
      {"Dehb",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Dehb>(space, strategy);
       }},
      {"Asha",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Asha>(space, strategy);
       }},
      {"Pasha",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Pasha>(space, strategy);
       }},
      {"RandomSearch",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<RandomSearch>(space, strategy);
       }},
      {"Smac",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<Smac>(space, strategy);
       }},
      {"Tpe",
       [](const ConfigSpace* space, ConfigSampler*, EvalStrategy* strategy)
           -> std::unique_ptr<HpoOptimizer> {
         return std::make_unique<TpeSearch>(space, strategy);
       }},
  };
}

class AllEvaluationsFailTest : public ::testing::TestWithParam<OptimizerCase> {
};

TEST_P(AllEvaluationsFailTest, ReturnsUnavailable) {
  ConfigSpace space = QualitySpace(6);
  RandomConfigSampler sampler(&space);
  FailAboveBudgetStrategy strategy(0.0, 0);
  std::unique_ptr<HpoOptimizer> optimizer =
      GetParam().make(&space, &sampler, &strategy);
  Dataset data = BudgetDataset(400);
  Rng rng(7);
  Result<HpoResult> result = optimizer->Optimize(data, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllOptimizers, AllEvaluationsFailTest, ::testing::ValuesIn(AllOptimizers()),
    [](const ::testing::TestParamInfo<OptimizerCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bhpo
