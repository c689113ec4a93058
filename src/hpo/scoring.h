#ifndef BHPO_HPO_SCORING_H_
#define BHPO_HPO_SCORING_H_

#include "common/status.h"
#include "cv/cross_validate.h"

namespace bhpo {

// Evaluation-metric options for turning a cross-validation outcome into the
// single score the halving operation ranks by (Section III-C).
struct ScoringOptions {
  // false -> the vanilla metric: s = mu (mean fold score).
  // true  -> Equation 3:        s = mu + alpha * beta(gamma) * sigma.
  bool use_variance = false;
  // UCB-style variance weight; the experiments use 0.1.
  double alpha = 0.1;
  // Maximum of the beta(gamma) weight; recommended 1/alpha (10).
  double beta_max = 10.0;

  // InvalidArgument unless alpha is finite and >= 0 and beta_max is finite
  // and > 0. Every entry point that takes options from a user calls it, so
  // a bad value never reaches the beta(gamma) checks or the Eq. 3 score.
  Status Validate() const;
};

// Scores one configuration's CV outcome. gamma_percent is the sampling
// ratio |b_t|/|B| * 100 used for the evaluation.
double ScoreOutcome(const CvOutcome& outcome, double gamma_percent,
                    const ScoringOptions& options);

}  // namespace bhpo

#endif  // BHPO_HPO_SCORING_H_
