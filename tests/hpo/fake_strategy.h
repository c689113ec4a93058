#ifndef BHPO_TESTS_HPO_FAKE_STRATEGY_H_
#define BHPO_TESTS_HPO_FAKE_STRATEGY_H_

#include <atomic>
#include <cmath>
#include <string>

#include "common/strings.h"
#include "hpo/config_space.h"
#include "hpo/eval_strategy.h"

namespace bhpo {

// Test double for optimizer-logic tests: every configuration carries a
// latent quality in its "q" hyperparameter, and Evaluate returns
// q + N(0, noise / sqrt(budget)) — noiseless at noise = 0, and increasingly
// reliable with budget otherwise, mimicking real subset evaluation.
class FakeStrategy : public EvalStrategy {
 public:
  explicit FakeStrategy(double noise = 0.0) : noise_(noise) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    double q = ParseDouble(config.GetOr("q", "0")).value_or(0.0);
    size_t b = std::min(budget, train.n());
    EvalResult r;
    r.budget_used = b;
    r.gamma_percent =
        100.0 * static_cast<double>(b) / static_cast<double>(train.n());
    double sigma = noise_ / std::sqrt(static_cast<double>(std::max<size_t>(b, 1)));
    r.score = q + (noise_ > 0.0 ? rng->Gaussian(0.0, sigma) : 0.0);
    r.cv.mean = r.score;
    r.cv.stddev = sigma;
    r.cv.subset_size = b;
    ++evaluations;
    return r;
  }

  std::string name() const override { return "fake"; }

  double noise_;
  std::atomic<int> evaluations{0};  // Atomic: rungs may evaluate in parallel.
};

// A FakeStrategy whose evaluations above `max_ok_budget` fail demotably
// (Internal); max_ok_budget = 0 fails every evaluation.
class FailAboveBudgetStrategy : public FakeStrategy {
 public:
  FailAboveBudgetStrategy(double noise, size_t max_ok_budget)
      : FakeStrategy(noise), max_ok_budget_(max_ok_budget) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    if (budget > max_ok_budget_) return Status::Internal("injected failure");
    return FakeStrategy::Evaluate(config, train, budget, rng);
  }

 private:
  size_t max_ok_budget_;
};

// A one-hyperparameter space whose configs have qualities 0.0 .. 0.1*(n-1).
inline ConfigSpace QualitySpace(int n) {
  ConfigSpace space;
  std::vector<std::string> values;
  for (int i = 0; i < n; ++i) {
    values.push_back(FormatDouble(0.1 * i, 2));
  }
  Status st = space.Add("q", values);
  BHPO_CHECK(st.ok());
  return space;
}

// A tiny dataset whose only role is to define the budget scale B = n.
inline Dataset BudgetDataset(size_t n) {
  Matrix x(n, 1);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = static_cast<int>(i % 2);
  return Dataset::Classification(std::move(x), std::move(y)).value();
}

}  // namespace bhpo

#endif  // BHPO_TESTS_HPO_FAKE_STRATEGY_H_
