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
      : sampler_(space, options.tpe),
        search_(&sampler_, strategy, options.num_iterations) {}
  // search_ points at sampler_.
  TpeSearch(const TpeSearch&) = delete;
  TpeSearch& operator=(const TpeSearch&) = delete;

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override {
    return search_.Optimize(train, rng);
  }

  std::string name() const override { return "tpe"; }

 private:
  TpeConfigSampler sampler_;
  RandomSearch search_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_TPE_SEARCH_H_
