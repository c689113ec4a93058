#ifndef BHPO_HPO_TPE_SEARCH_H_
#define BHPO_HPO_TPE_SEARCH_H_

#include "hpo/bohb.h"
#include "hpo/random_search.h"

namespace bhpo {

struct TpeSearchOptions {
  // Total full-budget configuration evaluations.
  size_t num_iterations = 20;
  TpeOptions tpe;
};

// Sequential TPE search in the style of Optuna's default sampler (Akiba et
// al. 2019), the paper's other extra baseline in Section IV-B: the
// full-budget loop (RandomSearch) over the good/bad density model of
// TpeConfigSampler, so every iteration evaluates one configuration at the
// FULL instance budget. Unlike BOHB there is no Hyperband bracket
// structure — this isolates the model-based sampling from multi-fidelity
// scheduling.
class TpeSearch : public HpoOptimizer {
 public:
  TpeSearch(const ConfigSpace* space, EvalStrategy* strategy,
            TpeSearchOptions options = {})
      : space_(space), strategy_(strategy), options_(options) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
    BHPO_CHECK_GT(options_.num_iterations, 0u);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override {
    // A fresh sampler per run: the model learns from this run only.
    TpeConfigSampler sampler(space_, options_.tpe);
    return RandomSearch(&sampler, strategy_, options_.num_iterations)
        .Optimize(train, rng);
  }

  std::string name() const override { return "tpe"; }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  TpeSearchOptions options_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_TPE_SEARCH_H_
