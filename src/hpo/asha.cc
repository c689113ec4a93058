#include "hpo/asha.h"

#include <algorithm>
#include <cmath>

#include "hpo/sha.h"

namespace bhpo {

Result<HpoResult> RunAshaLoop(const ConfigSpace& space,
                              EvalStrategy* strategy,
                              const AshaOptions& options,
                              const RungGrowthRule& grow,
                              const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  double eta = static_cast<double>(options.eta);
  std::vector<size_t> rung_budget;
  for (size_t b = MinRungBudget(options.min_budget, options.eta, train.n());;
       b = static_cast<size_t>(b * eta)) {
    rung_budget.push_back(std::min(b, train.n()));
    if (rung_budget.back() >= train.n()) break;
  }
  size_t top = rung_budget.size() - 1;
  size_t active_top = grow ? std::min<size_t>(1, top) : top;

  std::vector<std::vector<AshaRungEntry>> rungs(rung_budget.size());
  RunLedger ledger;
  // Evaluations draw from per-(config, budget) streams off this root, so a
  // config re-evaluated at a rung budget it has already seen (promotion
  // after a cap, duplicate sample) replays identically — and cache-ably.
  uint64_t eval_root = rng->engine()();

  auto run_job = [&](const Configuration& config, size_t rung) -> Status {
    // A job is a rung step over a batch of one. Demotable failures become
    // sentinel entries that sink to the bottom of the rung instead of
    // killing the search.
    BHPO_ASSIGN_OR_RETURN(
        std::vector<EvalResult> evals,
        EvaluateRung(strategy, {config}, train, rung_budget[rung], rung,
                     eval_root, nullptr, nullptr, &ledger));
    rungs[rung].push_back({config, evals.front().score, false});
    return Status::OK();
  };

  for (size_t job = 0; job < options.max_jobs; ++job) {
    // ASHA promotion rule: scan rungs top-down for a configuration that is
    // in the top 1/eta of its rung and not yet promoted.
    bool promoted = false;
    for (size_t k = active_top; k-- > 0 && !promoted;) {
      size_t promotable = static_cast<size_t>(
          std::floor(static_cast<double>(rungs[k].size()) / eta));
      if (promotable == 0) continue;
      std::vector<double> scores;
      scores.reserve(rungs[k].size());
      for (const AshaRungEntry& e : rungs[k]) scores.push_back(e.score);
      for (size_t idx : TopIndicesByScore(scores, promotable)) {
        if (!rungs[k][idx].promoted) {
          rungs[k][idx].promoted = true;
          BHPO_RETURN_NOT_OK(run_job(rungs[k][idx].config, k + 1));
          promoted = true;
          break;
        }
      }
    }
    if (!promoted) {
      BHPO_RETURN_NOT_OK(run_job(space.Sample(rng), 0));
    }
    if (active_top < top &&
        grow(rungs[active_top - 1], rungs[active_top])) {
      ++active_top;
    }
  }
  return std::move(ledger).Finish();
}

Result<HpoResult> Asha::Optimize(const Dataset& train, Rng* rng) {
  return RunAshaLoop(*space_, strategy_, options_, nullptr, train, rng);
}

}  // namespace bhpo
