#ifndef BHPO_HPO_SHA_H_
#define BHPO_HPO_SHA_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "hpo/checkpoint.h"
#include "hpo/optimizer.h"

namespace bhpo {

// Crash-safe checkpointing for a SuccessiveHalving run. With a non-empty
// path, the run writes a checkpoint after every completed rung; a run
// resumed from such a checkpoint reproduces the uninterrupted run's best
// configuration and history bit-identically (evaluations are pure functions
// of the restored eval_root — see PerEvalRng).
struct ShaCheckpointOptions {
  // Checkpoint file; empty disables checkpointing.
  std::string path;
  // Recorded in the checkpoint; resume refuses a checkpoint whose tag
  // differs from a non-empty tag here. Put the dataset/seed identity in it.
  std::string run_tag;
  // Resume from this previously loaded state instead of starting fresh.
  // Not owned; must outlive Optimize.
  const CheckpointState* resume = nullptr;
  // Test hook simulating a SIGKILL at the checkpoint boundary: Optimize
  // returns DeadlineExceeded right after `stop_after_rungs` rungs have
  // completed (and their checkpoint write was attempted). 0 = never stop.
  size_t stop_after_rungs = 0;
  // Fault injection for checkpoint IO (kCheckpointTornWrite); null =
  // FaultInjector::Global(). Not owned.
  FaultInjector* faults = nullptr;
};

struct ShaOptions {
  // Keep the top 1/eta of the candidates each iteration; 2 = halving, the
  // paper's Figure 1 schedule.
  int eta = 2;
  // Optional worker pool: candidates within a rung are independent, so
  // their evaluations run concurrently when a pool is supplied. The
  // strategy must then be thread-safe for concurrent Evaluate calls (both
  // built-in strategies are: they only read shared state). Results are
  // deterministic regardless of thread count — every candidate gets its
  // own forked RNG stream up front. Not owned; may be null.
  ThreadPool* pool = nullptr;
  ShaCheckpointOptions checkpoint;
};

// Successive Halving (Jamieson & Talwalkar 2016) with instances as the
// budget, exactly as Algorithm 1 frames it: each iteration evaluates every
// surviving configuration on b_t = B / |T_t| instances via k-fold CV, then
// drops the bottom (eta-1)/eta by score. Plugging in EnhancedStrategy
// yields the paper's SHA+.
class SuccessiveHalving : public HpoOptimizer {
 public:
  // `strategy` must outlive the optimizer; `candidates` is T_0.
  SuccessiveHalving(std::vector<Configuration> candidates,
                    EvalStrategy* strategy, ShaOptions options = {})
      : candidates_(std::move(candidates)),
        strategy_(strategy),
        options_(options) {
    BHPO_CHECK(strategy != nullptr);
    BHPO_CHECK(!candidates_.empty());
    BHPO_CHECK_GE(options_.eta, 2);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return "sha"; }

 private:
  std::vector<Configuration> candidates_;
  EvalStrategy* strategy_;
  ShaOptions options_;
};

// Ranks `scores` descending and returns the indices of the `keep` best
// (stable: earlier candidates win ties). Shared by the halving step
// (KeepTop) and the ASHA promotion loop (ASHA and PASHA).
std::vector<size_t> TopIndicesByScore(const std::vector<double>& scores,
                                      size_t keep);

// The halving step of SHA and Hyperband: the `keep` configurations whose
// results (`evals[i]` is `configs[i]`'s) score best, best first.
std::vector<Configuration> KeepTop(std::vector<Configuration> configs,
                                   const std::vector<EvalResult>& evals,
                                   size_t keep);

// Rung-0 budget of a Hyperband, ASHA or PASHA ladder over `max_budget`
// instances: `requested` when non-zero, else max(20, max_budget / eta^3);
// capped at max_budget either way.
size_t MinRungBudget(size_t requested, int eta, size_t max_budget);

// Evaluates a rung of configurations at one budget, serially or on the
// pool (see ShaOptions::pool for the threading contract). Each evaluation
// runs on PerEvalRng(eval_root, config, budget, n): a pure function of the
// root, the configuration and the budget, so results are deterministic
// regardless of thread count AND identical whenever the same
// (config, budget) pair recurs — within a rung, across Hyperband brackets,
// or across the whole run — which is what the evaluation cache exploits.
// `eval_root` is drawn once per optimizer run from the master rng.
// Failures are demoted in batch order: a demotable one (see
// IsDemotableEvalError) becomes DemotedEvalResult() so one broken candidate
// never aborts the rung, a non-demotable one (invalid argument) still
// propagates.
Result<std::vector<EvalResult>> EvaluateBatch(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, uint64_t eval_root,
    ThreadPool* pool);

// The rung step every evaluation of all nine optimizers goes through:
// EvaluateBatch, then, in batch order, Observe on `sampler` (may be null)
// for each healthy result and Record at `rung` for every result.
Result<std::vector<EvalResult>> EvaluateRung(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, size_t rung, uint64_t eval_root,
    ThreadPool* pool, ConfigSampler* sampler, RunLedger* ledger);

}  // namespace bhpo

#endif  // BHPO_HPO_SHA_H_
