#ifndef BHPO_HPO_RANDOM_SEARCH_H_
#define BHPO_HPO_RANDOM_SEARCH_H_

#include <memory>

#include "hpo/optimizer.h"

namespace bhpo {

// The full-budget loop: draw num_samples configurations from a sampler,
// evaluate each with the FULL instance budget (no halving), and keep the
// best score. Over a uniform sampler this is the paper's "random" baseline
// (the paper samples 10); TpeSearch and Smac run the same loop over their
// model-based samplers.
class RandomSearch : public HpoOptimizer {
 public:
  // Uniform sampling from `space`. `space` and `strategy` must outlive the
  // optimizer.
  RandomSearch(const ConfigSpace* space, EvalStrategy* strategy,
               size_t num_samples = 10)
      : RandomSearch(std::make_unique<RandomConfigSampler>(space), strategy,
                     num_samples) {}

  // Draws from `sampler`, which must outlive the optimizer.
  RandomSearch(ConfigSampler* sampler, EvalStrategy* strategy,
               size_t num_samples)
      : sampler_(sampler), strategy_(strategy), num_samples_(num_samples) {
    BHPO_CHECK(sampler != nullptr && strategy != nullptr);
    BHPO_CHECK_GT(num_samples, 0u);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return "random"; }

 private:
  RandomSearch(std::unique_ptr<ConfigSampler> owned, EvalStrategy* strategy,
               size_t num_samples)
      : RandomSearch(owned.get(), strategy, num_samples) {
    owned_ = std::move(owned);
  }

  std::unique_ptr<ConfigSampler> owned_;
  ConfigSampler* sampler_;
  EvalStrategy* strategy_;
  size_t num_samples_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_RANDOM_SEARCH_H_
