#include "hpo/hyperband.h"

#include <algorithm>
#include <cmath>

#include "hpo/sha.h"

namespace bhpo {

Result<HpoResult> Hyperband::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  double eta = static_cast<double>(options_.eta);
  size_t big_r = train.n();  // Maximum per-configuration budget.
  size_t r_min = MinRungBudget(options_.min_budget, options_.eta, big_r);
  int s_max = static_cast<int>(std::floor(
      std::log(static_cast<double>(big_r) / static_cast<double>(r_min)) /
      std::log(eta)));
  s_max = std::max(s_max, 0);

  RunLedger ledger;
  // Shared across ALL brackets: a configuration re-sampled in a later
  // bracket replays the same per-(config, budget) evaluation streams, so a
  // wired-in evaluation cache serves those repeats without retraining.
  uint64_t eval_root = rng->engine()();

  for (int s = s_max; s >= 0; --s) {
    // Bracket s: n_s configurations starting at budget R * eta^-s.
    size_t n_s = static_cast<size_t>(std::ceil(
        static_cast<double>(s_max + 1) / static_cast<double>(s + 1) *
        std::pow(eta, s)));
    double r_s = static_cast<double>(big_r) * std::pow(eta, -s);

    std::vector<Configuration> configs;
    configs.reserve(n_s);
    for (size_t i = 0; i < n_s; ++i) configs.push_back(sampler_->Sample(rng));

    for (int i = 0; i <= s; ++i) {
      size_t budget = static_cast<size_t>(
          std::llround(r_s * std::pow(eta, i)));
      budget = std::min<size_t>(std::max<size_t>(budget, 1), big_r);

      // Keyed on the requested budget: every bracket tops out at R, and
      // only evaluations at equal budgets compare across brackets.
      BHPO_ASSIGN_OR_RETURN(
          std::vector<EvalResult> evals,
          EvaluateRung(strategy_, configs, train, budget, budget, eval_root,
                       options_.pool, sampler_, &ledger));

      if (i == s) break;  // Last rung of the bracket.
      size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::floor(
                 static_cast<double>(configs.size()) / eta)));
      configs = KeepTop(std::move(configs), evals, keep);
    }
  }

  return std::move(ledger).Finish();
}

}  // namespace bhpo
