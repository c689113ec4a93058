#include "hpo/pasha.h"

#include <algorithm>
#include <cmath>

#include "hpo/asha.h"

namespace bhpo {

bool RankingDisagrees(const std::vector<double>& lower_rung_scores,
                      const std::vector<double>& upper_rung_scores,
                      double tolerance) {
  BHPO_CHECK_EQ(lower_rung_scores.size(), upper_rung_scores.size());
  size_t n = lower_rung_scores.size();
  // Any pair ordered confidently (> tolerance apart) in the lower rung but
  // reversed in the upper rung is a disagreement.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double lower_gap = lower_rung_scores[i] - lower_rung_scores[j];
      if (std::fabs(lower_gap) <= tolerance) continue;  // Soft tie.
      double upper_gap = upper_rung_scores[i] - upper_rung_scores[j];
      if (lower_gap * upper_gap < 0.0) return true;
    }
  }
  return false;
}

namespace {

// PASHA's growth step: unlock the next rung when the configurations present
// in both of the two highest active rungs are ranked differently by them.
bool ShouldGrow(const std::vector<AshaRungEntry>& lower,
                const std::vector<AshaRungEntry>& upper) {
  if (upper.size() < 2) return false;
  // Align configurations present in both rungs.
  std::vector<double> lower_scores, upper_scores;
  for (const AshaRungEntry& up : upper) {
    for (const AshaRungEntry& low : lower) {
      if (low.config == up.config) {
        lower_scores.push_back(low.score);
        upper_scores.push_back(up.score);
        break;
      }
    }
  }
  if (lower_scores.size() < 2) return false;
  // Soft-ranking tolerance: scaled to the observed score spread.
  double lo = *std::min_element(lower_scores.begin(), lower_scores.end());
  double hi = *std::max_element(lower_scores.begin(), lower_scores.end());
  double tolerance = 0.05 * std::max(1e-12, hi - lo);
  return RankingDisagrees(lower_scores, upper_scores, tolerance);
}

}  // namespace

Result<HpoResult> Pasha::Optimize(const Dataset& train, Rng* rng) {
  AshaOptions ladder{options_.eta, options_.min_budget, options_.max_jobs};
  return RunAshaLoop(*space_, strategy_, ladder, ShouldGrow, train, rng);
}

}  // namespace bhpo
