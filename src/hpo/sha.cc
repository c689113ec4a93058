#include "hpo/sha.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/logging.h"

namespace bhpo {

std::vector<size_t> TopIndicesByScore(const std::vector<double>& scores,
                                      size_t keep) {
  keep = std::min(keep, scores.size());
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  order.resize(keep);
  return order;
}

size_t MinRungBudget(size_t requested, int eta, size_t max_budget) {
  double auto_budget = static_cast<double>(max_budget) /
                       std::pow(static_cast<double>(eta), 3);
  size_t r_min = requested > 0
                     ? requested
                     : std::max<size_t>(20, static_cast<size_t>(auto_budget));
  return std::min(r_min, max_budget);
}

std::vector<Configuration> KeepTop(std::vector<Configuration> configs,
                                   const std::vector<EvalResult>& evals,
                                   size_t keep) {
  BHPO_CHECK_EQ(configs.size(), evals.size());
  std::vector<double> scores;
  scores.reserve(evals.size());
  for (const EvalResult& eval : evals) scores.push_back(eval.score);
  std::vector<Configuration> kept;
  kept.reserve(keep);
  for (size_t idx : TopIndicesByScore(scores, keep)) {
    kept.push_back(std::move(configs[idx]));
  }
  return kept;
}

Result<std::vector<EvalResult>> EvaluateBatch(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, uint64_t eval_root,
    ThreadPool* pool) {
  std::vector<std::optional<Result<EvalResult>>> raw(configs.size());
  auto evaluate_one = [&](size_t i) {
    // Each evaluation owns a stream derived from (root, config, budget) —
    // independent of scheduling, pool size, and position in the batch.
    Rng eval_rng = PerEvalRng(eval_root, configs[i], budget, train.n());
    raw[i] = strategy->Evaluate(configs[i], train, budget, &eval_rng);
  };
  if (pool != nullptr && configs.size() > 1) {
    pool->ParallelFor(configs.size(), evaluate_one);
  } else {
    for (size_t i = 0; i < configs.size(); ++i) evaluate_one(i);
  }

  std::vector<EvalResult> results;
  results.reserve(configs.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    BHPO_CHECK(raw[i].has_value());
    Result<EvalResult>& result = *raw[i];
    if (result.ok()) {
      results.push_back(std::move(result).value());
      continue;
    }
    if (!IsDemotableEvalError(result.status())) return result.status();
    BHPO_LOG(kWarning) << "evaluation of " << configs[i].ToString()
                       << " demoted to sentinel score: "
                       << result.status().ToString();
    results.push_back(DemotedEvalResult());
  }
  return results;
}

Result<std::vector<EvalResult>> EvaluateRung(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, size_t rung, uint64_t eval_root,
    ThreadPool* pool, ConfigSampler* sampler, RunLedger* ledger) {
  BHPO_ASSIGN_OR_RETURN(
      std::vector<EvalResult> evals,
      EvaluateBatch(strategy, configs, train, budget, eval_root, pool));
  for (size_t i = 0; i < configs.size(); ++i) {
    if (sampler != nullptr && !evals[i].eval_failed) {
      sampler->Observe(configs[i], evals[i].score, evals[i].budget_used);
    }
    ledger->Record(configs[i], rung, evals[i]);
  }
  return evals;
}

Result<HpoResult> SuccessiveHalving::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  RunLedger ledger;
  std::vector<Configuration> survivors;
  size_t total_budget = train.n();  // B = n (Table I).
  uint64_t eval_root = 0;
  size_t rungs_completed = 0;
  auto keep_of = [this](size_t size) {
    return std::max<size_t>(
        1, (size + options_.eta - 1) / static_cast<size_t>(options_.eta));
  };

  const CheckpointState* resume = options_.checkpoint.resume;
  if (resume != nullptr) {
    if (resume->method != name()) {
      return Status::InvalidArgument(
          "checkpoint was written by method '" + resume->method +
          "', not '" + name() + "'");
    }
    if (!options_.checkpoint.run_tag.empty() &&
        resume->run_tag != options_.checkpoint.run_tag) {
      return Status::InvalidArgument(
          "checkpoint run tag '" + resume->run_tag +
          "' does not match expected '" + options_.checkpoint.run_tag + "'");
    }
    // Rung sizes are a pure function of |T_0| and eta, so the rung of every
    // restored record follows from its position in the history.
    std::vector<size_t> rungs;
    size_t size = candidates_.size();
    for (size_t k = 0; k < resume->rungs_completed; ++k) {
      rungs.insert(rungs.end(), size, k);
      size = keep_of(size);
    }
    if (rungs.size() != resume->history.size() ||
        size != resume->survivors.size()) {
      return Status::InvalidArgument(
          "checkpoint history does not match " +
          std::to_string(candidates_.size()) + " candidates after " +
          std::to_string(resume->rungs_completed) + " rungs");
    }
    // Restoring eval_root (and NOT drawing from rng) is what makes every
    // remaining evaluation replay the uninterrupted run bit-identically.
    eval_root = resume->eval_root;
    rungs_completed = resume->rungs_completed;
    survivors = resume->survivors;
    ledger.Restore(*resume, rungs);
  } else {
    survivors = candidates_;
    // One stream root for the whole run; every evaluation's randomness is
    // PerEvalRng(root, config, budget) from here on.
    eval_root = rng->engine()();
  }

  while (survivors.size() > 1) {
    size_t per_config = std::max<size_t>(1, total_budget / survivors.size());

    BHPO_ASSIGN_OR_RETURN(
        std::vector<EvalResult> evals,
        EvaluateRung(strategy_, survivors, train, per_config,
                     rungs_completed, eval_root, options_.pool, nullptr,
                     &ledger));
    size_t keep = keep_of(survivors.size());
    survivors = KeepTop(std::move(survivors), evals, keep);

    ++rungs_completed;
    if (!options_.checkpoint.path.empty()) {
      CheckpointState state;
      state.method = name();
      state.run_tag = options_.checkpoint.run_tag;
      state.eval_root = eval_root;
      state.rungs_completed = rungs_completed;
      state.survivors = survivors;
      ledger.SaveTo(&state);
      Status saved = SaveCheckpoint(options_.checkpoint.path, state,
                                    options_.checkpoint.faults);
      if (!saved.ok()) {
        // A failed checkpoint write (torn write, full disk) costs resume
        // granularity, never the run: the previous checkpoint is intact
        // and the search continues.
        BHPO_LOG(kWarning) << "checkpoint write failed after rung "
                           << rungs_completed
                           << " (run continues): " << saved.ToString();
      }
      if (options_.checkpoint.stop_after_rungs > 0 &&
          rungs_completed >= options_.checkpoint.stop_after_rungs) {
        // Simulated SIGKILL at the checkpoint boundary (test hook).
        return Status::DeadlineExceeded(
            "stopped after rung " + std::to_string(rungs_completed) +
            " (ShaCheckpointOptions::stop_after_rungs)");
      }
    }
  }

  if (candidates_.size() == 1) {
    // Degenerate space: score the lone candidate at full budget.
    BHPO_RETURN_NOT_OK(EvaluateRung(strategy_, survivors, train, train.n(),
                                    0, eval_root, nullptr, nullptr, &ledger)
                           .status());
  }
  // The winner is the last rung's best healthy entry, which is the survivor
  // whenever the survivor was not demoted; if the whole rung was, the
  // highest lower rung with a healthy entry supplies it.
  return std::move(ledger).Finish();
}

}  // namespace bhpo
