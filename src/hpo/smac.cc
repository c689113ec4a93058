#include "hpo/smac.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "ml/random_forest.h"

namespace bhpo {

double ExpectedImprovement(double mean, double stddev, double best,
                           double xi) {
  double improvement = mean - best - xi;
  if (stddev < 1e-12) return std::max(0.0, improvement);
  double z = improvement / stddev;
  // Standard normal pdf/cdf.
  double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
  double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  return improvement * cdf + stddev * pdf;
}

void SmacSampler::Observe(const Configuration& config, double score,
                          size_t /*budget*/) {
  if (scores_.empty() || score > best_score_) best_score_ = score;
  encodings_.push_back(space_->Encode(config));
  scores_.push_back(score);
}

Configuration SmacSampler::Sample(Rng* rng) {
  BHPO_CHECK(rng != nullptr);
  // Warm start, or every evaluation so far failed: nothing to fit the
  // surrogate on, so sample at random.
  if (draws_++ < options_.initial_random || scores_.empty()) {
    return space_->Sample(rng);
  }

  // Fit the surrogate on everything observed so far.
  Matrix x(encodings_.size(), space_->num_hyperparameters());
  for (size_t r = 0; r < encodings_.size(); ++r) {
    for (size_t c = 0; c < encodings_[r].size(); ++c) {
      x(r, c) = encodings_[r][c];
    }
  }
  // Neither can fail: rows match targets, there is at least one row, and
  // Smac checks that the forest has at least one tree.
  Dataset surrogate_data = Dataset::Regression(std::move(x), scores_).value();
  RandomForestConfig rf_config;
  rf_config.num_trees = options_.surrogate_trees;
  rf_config.tree.min_samples_leaf = 1;
  rf_config.seed = rng->engine()();
  RandomForest surrogate(rf_config);
  Status fitted = surrogate.Fit(surrogate_data);
  BHPO_CHECK(fitted.ok()) << fitted.ToString();

  // Acquisition maximization over random candidates (plus the incumbent
  // neighborhood via plain sampling — adequate for categorical spaces).
  Matrix candidates(options_.candidates_per_iteration,
                    space_->num_hyperparameters());
  std::vector<Configuration> candidate_configs;
  candidate_configs.reserve(options_.candidates_per_iteration);
  for (size_t i = 0; i < options_.candidates_per_iteration; ++i) {
    Configuration c = space_->Sample(rng);
    std::vector<double> enc = space_->Encode(c);
    for (size_t d = 0; d < enc.size(); ++d) candidates(i, d) = enc[d];
    candidate_configs.push_back(std::move(c));
  }
  std::vector<double> mean, stddev;
  surrogate.PredictValuesWithStd(candidates, &mean, &stddev);

  size_t best_candidate = 0;
  double best_ei = -1.0;
  for (size_t i = 0; i < candidate_configs.size(); ++i) {
    double ei = ExpectedImprovement(mean[i], stddev[i], best_score_,
                                    options_.ei_xi);
    if (ei > best_ei) {
      best_ei = ei;
      best_candidate = i;
    }
  }
  return candidate_configs[best_candidate];
}

}  // namespace bhpo
