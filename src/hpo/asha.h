#ifndef BHPO_HPO_ASHA_H_
#define BHPO_HPO_ASHA_H_

#include <functional>
#include <vector>

#include "hpo/config_space.h"
#include "hpo/optimizer.h"

namespace bhpo {

struct AshaOptions {
  int eta = 2;
  // Budget of rung 0; 0 = auto: max(20, n / eta^3) (MinRungBudget).
  size_t min_budget = 0;
  // Total evaluation jobs to run (the stopping criterion of the
  // sequential simulation).
  size_t max_jobs = 60;
};

// Asynchronous Successive Halving (Li et al. 2018). ASHA's core idea is a
// promotion rule that never waits for a rung to fill: whenever a worker
// asks for a job, the scheduler promotes the best not-yet-promoted
// configuration from the highest rung where it sits in the top 1/eta,
// otherwise it starts a fresh configuration at rung 0. We run that exact
// scheduling logic in a sequential simulation (one worker, RunAshaLoop),
// which keeps the algorithmic behaviour — early promotions based on partial
// rung information — without threads. The incumbent is the best healthy
// entry of the highest rung that has one (RunLedger).
class Asha : public HpoOptimizer {
 public:
  Asha(const ConfigSpace* space, EvalStrategy* strategy,
       AshaOptions options = {})
      : space_(space), strategy_(strategy), options_(options) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
    BHPO_CHECK_GE(options_.eta, 2);
    BHPO_CHECK_GT(options_.max_jobs, 0u);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return "asha"; }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  AshaOptions options_;
};

// One configuration's entry in an ASHA rung.
struct AshaRungEntry {
  Configuration config;
  double score = 0.0;
  bool promoted = false;
};

// Decides, from the entries of the two highest active rungs, whether a
// progressive ladder unlocks its next rung (PASHA's growth step).
using RungGrowthRule =
    std::function<bool(const std::vector<AshaRungEntry>& lower,
                       const std::vector<AshaRungEntry>& upper)>;

// ASHA's sequential promotion loop, shared by Asha and Pasha. Rung k
// evaluates at MinRungBudget(min_budget, eta, n) * eta^k, capped at n; the
// top rung is the first to reach n. Without a growth rule every rung is
// active from the start (ASHA). With one, the ladder starts at two rungs and
// unlocks the next after any job for which `grow` returns true (PASHA).
Result<HpoResult> RunAshaLoop(const ConfigSpace& space,
                              EvalStrategy* strategy,
                              const AshaOptions& options,
                              const RungGrowthRule& grow,
                              const Dataset& train, Rng* rng);

}  // namespace bhpo

#endif  // BHPO_HPO_ASHA_H_
