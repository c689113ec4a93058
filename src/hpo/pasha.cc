#include "hpo/pasha.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "hpo/sha.h"

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

struct RungEntry {
  Configuration config;
  double score;
  bool promoted;
  bool failed;  // Demoted evaluation (sentinel score).
};

}  // namespace

Result<HpoResult> Pasha::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  double eta = static_cast<double>(options_.eta);
  size_t r_min = options_.min_budget > 0
                     ? options_.min_budget
                     : std::max<size_t>(
                           20, static_cast<size_t>(
                                   static_cast<double>(train.n()) /
                                   std::pow(eta, 3)));
  r_min = std::min(r_min, train.n());

  std::vector<size_t> rung_budget;
  for (size_t b = r_min;; b = static_cast<size_t>(b * eta)) {
    rung_budget.push_back(std::min(b, train.n()));
    if (rung_budget.back() >= train.n()) break;
  }
  size_t final_top = rung_budget.size() - 1;
  // PASHA starts with two rungs and grows on ranking disagreement.
  size_t active_top = std::min<size_t>(1, final_top);

  std::vector<std::vector<RungEntry>> rungs(rung_budget.size());
  HpoResult result;
  // Same per-(config, budget) stream scheme as ASHA; see asha.cc.
  uint64_t eval_root = rng->engine()();

  auto run_job = [&](const Configuration& config, size_t rung) -> Status {
    Rng eval_rng = PerEvalRng(eval_root, config, rung_budget[rung], train.n());
    // Same rung-level degradation as ASHA: see asha.cc.
    BHPO_ASSIGN_OR_RETURN(
        EvalResult eval,
        EvaluateOrDemote(strategy_, config, train, rung_budget[rung],
                         &eval_rng));
    rungs[rung].push_back({config, eval.score, false, eval.eval_failed});
    result.history.push_back(
        {config, eval.score, eval.budget_used, eval.eval_failed});
    ++result.num_evaluations;
    result.total_instances += eval.budget_used;
    AccumulateFaults(eval, &result.faults);
    return Status::OK();
  };

  auto maybe_grow = [&] {
    if (active_top >= final_top) return;
    // Align configurations present in both of the two highest rungs.
    if (active_top == 0) return;
    const auto& lower = rungs[active_top - 1];
    const auto& upper = rungs[active_top];
    if (upper.size() < 2) return;
    std::vector<double> lower_scores, upper_scores;
    for (const RungEntry& up : upper) {
      for (const RungEntry& low : lower) {
        if (low.config == up.config) {
          lower_scores.push_back(low.score);
          upper_scores.push_back(up.score);
          break;
        }
      }
    }
    if (lower_scores.size() < 2) return;
    // Soft-ranking tolerance: scaled to the observed score spread.
    double lo = *std::min_element(lower_scores.begin(), lower_scores.end());
    double hi = *std::max_element(lower_scores.begin(), lower_scores.end());
    double tolerance = 0.05 * std::max(1e-12, hi - lo);
    if (RankingDisagrees(lower_scores, upper_scores, tolerance)) {
      ++active_top;
    }
  };

  for (size_t job = 0; job < options_.max_jobs; ++job) {
    bool promoted = false;
    for (size_t k = active_top; k-- > 0 && !promoted;) {
      size_t promotable = static_cast<size_t>(
          std::floor(static_cast<double>(rungs[k].size()) / eta));
      if (promotable == 0) continue;
      std::vector<double> scores;
      scores.reserve(rungs[k].size());
      for (const RungEntry& e : rungs[k]) scores.push_back(e.score);
      for (size_t idx : TopIndicesByScore(scores, promotable)) {
        if (!rungs[k][idx].promoted) {
          rungs[k][idx].promoted = true;
          BHPO_RETURN_NOT_OK(run_job(rungs[k][idx].config, k + 1));
          promoted = true;
          break;
        }
      }
    }
    if (!promoted) {
      BHPO_RETURN_NOT_OK(run_job(space_->Sample(rng), 0));
    }
    maybe_grow();
  }

  // ASHA's incumbent rule: the best non-demoted entry of the highest rung
  // that has one. Only when every evaluation was demoted does a sentinel
  // entry of the highest populated rung stand.
  const RungEntry* best = nullptr;
  for (size_t k = rungs.size(); k-- > 0 && best == nullptr;) {
    for (const RungEntry& e : rungs[k]) {
      if (!e.failed && (best == nullptr || e.score > best->score)) best = &e;
    }
  }
  for (size_t k = rungs.size(); k-- > 0 && best == nullptr;) {
    if (!rungs[k].empty()) best = &rungs[k].front();
  }
  if (best == nullptr) {
    return Status::Internal("pasha ran no evaluations");
  }
  result.best_score = best->score;
  result.best_config = best->config;
  return result;
}

}  // namespace bhpo
