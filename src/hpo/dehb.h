#ifndef BHPO_HPO_DEHB_H_
#define BHPO_HPO_DEHB_H_

#include <vector>

#include "hpo/hyperband.h"

namespace bhpo {

struct DeOptions {
  // DE mutation factor (rand/1 scheme).
  double mutation_factor = 0.5;
  // Binomial crossover probability.
  double crossover_prob = 0.5;
  // Population: the top observations at the model budget.
  size_t population_size = 10;
  // Observations needed before evolution starts.
  size_t min_points = 5;
};

// Differential-evolution configuration sampler, the core of DEHB (Awad,
// Mallik & Hutter, IJCAI 2021), reviewed in Section II-B. Configurations
// are encoded as vectors in [0,1)^d (one dimension per hyperparameter,
// categorical domains mapped to uniform bins). New candidates come from
// rand/1 mutation over the population of best observed configurations plus
// binomial crossover, with out-of-range coordinates reflected back into
// [0,1). Before enough observations exist, sampling is uniform.
//
// This follows DEHB's "evolve from the best of the lower budget" spirit
// with one simplification (documented in DESIGN.md): a single population
// over the highest informative budget instead of one subpopulation per
// rung.
class DeConfigSampler : public ConfigSampler {
 public:
  DeConfigSampler(const ConfigSpace* space, DeOptions options = {})
      : space_(space), options_(options) {
    BHPO_CHECK(space != nullptr);
    BHPO_CHECK(options_.mutation_factor > 0.0);
    BHPO_CHECK(options_.crossover_prob >= 0.0 &&
               options_.crossover_prob <= 1.0);
    BHPO_CHECK_GE(options_.min_points, 3u);
  }

  Configuration Sample(Rng* rng) override;
  void Observe(const Configuration& config, double score,
               size_t budget) override;
  std::string name() const override { return "de"; }

  // Encoding helpers (exposed for tests). Each hyperparameter maps to the
  // center of its value's bin; decoding snaps to the containing bin.
  std::vector<double> Encode(const Configuration& config) const;
  Configuration Decode(const std::vector<double>& vec) const;

 private:
  struct Observation {
    std::vector<double> encoded;
    double score;
    size_t budget;
  };

  const ConfigSpace* space_;
  DeOptions options_;
  std::vector<Observation> observations_;
};

// DEHB = Hyperband whose brackets draw configurations from the DE sampler.
class Dehb : public HpoOptimizer {
 public:
  Dehb(const ConfigSpace* space, EvalStrategy* strategy,
       HyperbandOptions hb_options = {}, DeOptions de_options = {})
      : space_(space),
        strategy_(strategy),
        hb_options_(hb_options),
        de_options_(de_options) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override {
    // A fresh sampler per run: the population comes from this run only.
    DeConfigSampler sampler(space_, de_options_);
    return Hyperband(&sampler, strategy_, hb_options_).Optimize(train, rng);
  }

  std::string name() const override { return "dehb"; }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  HyperbandOptions hb_options_;
  DeOptions de_options_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_DEHB_H_
