#include "hpo/scoring.h"

#include <cmath>
#include <limits>

#include "hpo/beta_weight.h"

namespace bhpo {

Status ScoringOptions::Validate() const {
  if (!std::isfinite(alpha) || alpha < 0.0) {
    return Status::InvalidArgument("alpha must be finite and >= 0");
  }
  if (!std::isfinite(beta_max) || beta_max <= 0.0) {
    return Status::InvalidArgument("beta_max must be finite and > 0");
  }
  return Status::OK();
}

double ScoreOutcome(const CvOutcome& outcome, double gamma_percent,
                    const ScoringOptions& options) {
  // Partial-failure guard for Equation 3: mu/sigma are computed over the
  // successful folds only (CrossValidate quarantines non-finite fold
  // scores), so a non-finite mean here means NO fold succeeded — the
  // configuration gets the sentinel score and loses every comparison. A
  // NaN must never leak into s = mu + alpha * beta(gamma) * sigma, where
  // it would poison the halving operation's ranking.
  if (!std::isfinite(outcome.mean)) {
    return -std::numeric_limits<double>::infinity();
  }
  if (!options.use_variance) return outcome.mean;
  double sigma = std::isfinite(outcome.stddev) ? outcome.stddev : 0.0;
  double beta = BetaWeight(gamma_percent, options.beta_max);
  return outcome.mean + options.alpha * beta * sigma;
}

}  // namespace bhpo
