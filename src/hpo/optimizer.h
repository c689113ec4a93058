#ifndef BHPO_HPO_OPTIMIZER_H_
#define BHPO_HPO_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "hpo/config_space.h"
#include "hpo/eval_strategy.h"

namespace bhpo {

// One configuration evaluation during a search.
struct EvaluationRecord {
  Configuration config;
  double score = 0.0;
  size_t budget = 0;
  // The evaluation was demoted to the sentinel score (-inf) because it
  // failed outright — the halving operation drops it instead of aborting.
  bool eval_failed = false;
};

// Per-run fault-tolerance accounting: every degradation the run absorbed
// instead of aborting. All zero on a clean run.
struct FaultReport {
  // Whole evaluations demoted to the sentinel score.
  size_t failed_evals = 0;
  // Folds that produced no usable score (fit failures + quarantines +
  // timeouts), and the quarantine/timeout breakdown.
  size_t failed_folds = 0;
  size_t quarantined_folds = 0;
  size_t timed_out_folds = 0;
  // Retry attempts spent on transient fold failures.
  size_t fold_retries = 0;
  // Faults the injector actually fired (0 unless BHPO_FAULT is active).
  size_t injected_faults = 0;

  size_t total_degradations() const {
    return failed_evals + failed_folds;
  }
};

// The outcome of a hyperparameter search.
struct HpoResult {
  Configuration best_config;
  // Internal (CV) score of the winning configuration at its final budget.
  double best_score = 0.0;
  size_t num_evaluations = 0;
  // Sum of instance budgets over all evaluations — the hardware-independent
  // cost proxy the bandit methods reason about.
  size_t total_instances = 0;
  std::vector<EvaluationRecord> history;
  FaultReport faults;
};

// Common interface of all nine optimizers: random search, SHA, Hyperband,
// BOHB, DEHB, ASHA, PASHA, SMAC and TPE. An optimizer is wired to an
// EvalStrategy at construction; running the same optimizer with
// VanillaStrategy vs EnhancedStrategy gives the paper's "X" vs "X+" pairs.
class HpoOptimizer {
 public:
  virtual ~HpoOptimizer() = default;

  virtual Result<HpoResult> Optimize(const Dataset& train, Rng* rng) = 0;

  virtual std::string name() const = 0;
};

// Supplies new configurations to a schedule and learns from its results.
// Hyperband's brackets and RandomSearch's full-budget loop both draw from
// one: RandomConfigSampler gives Hyperband and random search, the TPE
// sampler (bohb.h) BOHB and TPE search, the DE sampler (dehb.h) DEHB, and
// SmacSampler (smac.h) SMAC.
class ConfigSampler {
 public:
  virtual ~ConfigSampler() = default;

  virtual Configuration Sample(Rng* rng) = 0;

  // Called by EvaluateRung (sha.h) after every healthy evaluation, in
  // batch order; model-based samplers learn from this.
  virtual void Observe(const Configuration& config, double score,
                       size_t budget) {
    (void)config;
    (void)score;
    (void)budget;
  }

  virtual std::string name() const = 0;
};

class RandomConfigSampler : public ConfigSampler {
 public:
  explicit RandomConfigSampler(const ConfigSpace* space) : space_(space) {
    BHPO_CHECK(space != nullptr);
  }
  Configuration Sample(Rng* rng) override { return space_->Sample(rng); }
  std::string name() const override { return "random"; }

 private:
  const ConfigSpace* space_;
};

// Trains the chosen configuration on the full training set and scores it on
// train and test — the paper's "trainAcc./testAcc." rows.
struct FinalEvaluation {
  double train_metric = 0.0;
  double test_metric = 0.0;
};

Result<FinalEvaluation> EvaluateFinalConfig(const Configuration& config,
                                            const Dataset& train,
                                            const Dataset& test,
                                            EvalMetric metric,
                                            const FactoryOptions& options);

// Fits the chosen configuration on the full training set: the model that
// EvaluateFinalConfig scores, for callers that also keep it (the CLI's
// --save-model).
Result<std::unique_ptr<Model>> FitFinalModel(const Configuration& config,
                                             const Dataset& train,
                                             const FactoryOptions& options);

// --- Rung-level graceful degradation -------------------------------------
// A bandit optimizer must never abort a bracket because one configuration's
// evaluation blew up: the broken candidate is demoted with a sentinel score
// and loses every comparison, while genuine caller bugs (invalid argument,
// unknown hyperparameter) still propagate.

// True for failure codes that describe THIS evaluation going wrong (fit
// divergence, injected faults, timeouts, IO trouble) rather than the search
// being misconfigured.
bool IsDemotableEvalError(const Status& status);

// The sentinel an optimizer records for a demoted evaluation: score = -inf
// (loses any comparison), eval_failed = true, zero budget consumed.
EvalResult DemotedEvalResult();

// --- The run ledger --------------------------------------------------------
// Every optimizer records its evaluations through one RunLedger, which owns
// the HpoResult under construction: history, counters, fault report and
// incumbent.
//
// The incumbent rule, identical for all nine optimizers: the best
// non-demoted entry of the highest rung that has one, the earliest entry
// winning ties. A rung is the fidelity the optimizer asked for (SHA's and
// ASHA's rung index, Hyperband's requested budget, 0 for the full-budget
// searches), never the budget an evaluation reports using, which can clamp
// to the same value on different rungs. When every evaluation was demoted
// there is no incumbent and the run fails with one status.

struct CheckpointState;  // hpo/checkpoint.h

class RunLedger {
 public:
  // Appends the evaluation to the history, counts it and its instances,
  // folds its fault counters into the report and offers it as incumbent.
  void Record(const Configuration& config, size_t rung,
              const EvalResult& eval);

  // Copies the history, counters and faults into `state`; the rest of the
  // checkpoint is the optimizer's.
  void SaveTo(CheckpointState* state) const;
  // Takes over a checkpoint's history, counters and faults; `rungs[i]` is
  // the rung history[i] was recorded at, from which the incumbent is
  // rebuilt. Requires rungs.size() == state.history.size().
  void Restore(const CheckpointState& state, const std::vector<size_t>& rungs);

  // The result, with best_config / best_score taken from the incumbent.
  // Unavailable when every evaluation was demoted or none ran.
  Result<HpoResult> Finish() &&;

 private:
  void Offer(size_t index, size_t rung);

  HpoResult result_;
  bool has_incumbent_ = false;
  size_t incumbent_ = 0;  // Index into result_.history.
  size_t incumbent_rung_ = 0;
};

}  // namespace bhpo

#endif  // BHPO_HPO_OPTIMIZER_H_
