#ifndef BHPO_HPO_SMAC_H_
#define BHPO_HPO_SMAC_H_

#include <vector>

#include "hpo/random_search.h"

namespace bhpo {

struct SmacOptions {
  // Total full-budget configuration evaluations.
  size_t num_iterations = 20;
  // Uniform-random warm start before the surrogate takes over.
  size_t initial_random = 6;
  // Candidates scored by the acquisition function per iteration.
  size_t candidates_per_iteration = 200;
  // Expected-improvement exploration jitter.
  double ei_xi = 0.01;
  // Surrogate forest size.
  int surrogate_trees = 25;
};

// SMAC's configuration source (Hutter et al. 2011). The first
// initial_random draws are uniform, and so is any draw made while no healthy
// observation exists; demoted draws count too. Every other draw fits a
// random-forest surrogate on the observed (encoded configuration -> CV
// score) pairs and returns, of candidates_per_iteration uniform candidates,
// the one with the highest expected improvement over the best observed
// score (RunLedger's rule: the first score, then only a strictly greater
// one), estimated from the forest's per-tree mean/stddev.
class SmacSampler : public ConfigSampler {
 public:
  SmacSampler(const ConfigSpace* space, SmacOptions options = {})
      : space_(space), options_(options) {
    BHPO_CHECK(space != nullptr);
  }

  Configuration Sample(Rng* rng) override;
  void Observe(const Configuration& config, double score,
               size_t budget) override;
  std::string name() const override { return "smac"; }

 private:
  const ConfigSpace* space_;
  SmacOptions options_;
  size_t draws_ = 0;
  std::vector<std::vector<double>> encodings_;
  std::vector<double> scores_;
  double best_score_ = 0.0;  // Set by the first Observe.
};

// SMAC-style sequential model-based optimization (SMAC3 is one of the
// paper's extra baselines in Section IV-B): the full-budget loop over a
// SmacSampler. It is the non-multi-fidelity baseline the bandit methods are
// compared against (the paper found it "performed similarly to random
// search" under matched time budgets).
class Smac : public HpoOptimizer {
 public:
  Smac(const ConfigSpace* space, EvalStrategy* strategy,
       SmacOptions options = {})
      : space_(space), strategy_(strategy), options_(options) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
    BHPO_CHECK_GT(options_.num_iterations, 0u);
    BHPO_CHECK_GT(options_.initial_random, 0u);
    BHPO_CHECK_GT(options_.surrogate_trees, 0);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override {
    // A fresh sampler per run: the surrogate learns from this run only.
    SmacSampler sampler(space_, options_);
    return RandomSearch(&sampler, strategy_, options_.num_iterations)
        .Optimize(train, rng);
  }

  std::string name() const override { return "smac"; }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  SmacOptions options_;
};

// Expected improvement of N(mean, stddev^2) over `best` (maximization),
// with exploration jitter xi. Exposed for tests.
double ExpectedImprovement(double mean, double stddev, double best,
                           double xi);

}  // namespace bhpo

#endif  // BHPO_HPO_SMAC_H_
