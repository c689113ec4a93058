#ifndef BHPO_HPO_BOHB_H_
#define BHPO_HPO_BOHB_H_

#include <map>
#include <vector>

#include "hpo/hyperband.h"

namespace bhpo {

// TPE-style model for categorical spaces, following BOHB (Falkner et al.
// 2018): observations at the highest budget with enough data are split
// into "good" (top fraction by score) and "bad"; each hyperparameter gets
// smoothed categorical densities l(v) (good) and g(v) (bad); candidates
// drawn from l are ranked by the density ratio l/g.
struct TpeOptions {
  // Minimum observations (at one budget) before the model activates;
  // before that, sampling is uniform.
  size_t min_points = 8;
  // Fraction of observations labeled "good".
  double top_fraction = 0.15;
  // Candidates drawn per Sample call; the best ratio wins.
  size_t num_candidates = 24;
  // Fraction of purely random samples, BOHB's exploration safeguard.
  double random_fraction = 1.0 / 3.0;
  // Laplace smoothing added to every category count ("bandwidth").
  double smoothing = 1.0;
};

class TpeConfigSampler : public ConfigSampler {
 public:
  TpeConfigSampler(const ConfigSpace* space, TpeOptions options = {})
      : space_(space), options_(options) {
    BHPO_CHECK(space != nullptr);
  }

  Configuration Sample(Rng* rng) override;
  void Observe(const Configuration& config, double score,
               size_t budget) override;
  std::string name() const override { return "tpe"; }

  // Largest budget currently holding >= min_points observations (0 if
  // none); exposed for tests.
  size_t ModelBudget() const;

 private:
  struct Observation {
    Configuration config;
    double score;
  };

  const ConfigSpace* space_;
  TpeOptions options_;
  std::map<size_t, std::vector<Observation>> by_budget_;
};

// BOHB = Hyperband whose brackets draw configurations from the TPE model.
// With EnhancedStrategy this is the paper's BOHB+.
class Bohb : public HpoOptimizer {
 public:
  Bohb(const ConfigSpace* space, EvalStrategy* strategy,
       HyperbandOptions hb_options = {}, TpeOptions tpe_options = {})
      : space_(space),
        strategy_(strategy),
        hb_options_(hb_options),
        tpe_options_(tpe_options) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override {
    // A fresh sampler per run: the model learns from this run only.
    TpeConfigSampler sampler(space_, tpe_options_);
    return Hyperband(&sampler, strategy_, hb_options_).Optimize(train, rng);
  }

  std::string name() const override { return "bohb"; }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  HyperbandOptions hb_options_;
  TpeOptions tpe_options_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_BOHB_H_
