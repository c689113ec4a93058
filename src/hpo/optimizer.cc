#include "hpo/optimizer.h"

#include <limits>
#include <memory>

#include "hpo/checkpoint.h"
#include "ml/mlp.h"

namespace bhpo {

bool IsDemotableEvalError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kIoError:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

EvalResult DemotedEvalResult() {
  EvalResult out;
  out.score = -std::numeric_limits<double>::infinity();
  out.eval_failed = true;
  return out;
}

void RunLedger::Record(const Configuration& config, size_t rung,
                       const EvalResult& eval) {
  result_.history.push_back(
      {config, eval.score, eval.budget_used, eval.eval_failed});
  ++result_.num_evaluations;
  result_.total_instances += eval.budget_used;
  FaultReport& faults = result_.faults;
  if (eval.eval_failed) ++faults.failed_evals;
  faults.failed_folds += eval.cv.failed_folds;
  faults.quarantined_folds += eval.cv.quarantined_folds;
  faults.timed_out_folds += eval.cv.timed_out_folds;
  faults.fold_retries += eval.cv.fold_retries;
  faults.injected_faults += eval.cv.injected_faults;
  Offer(result_.history.size() - 1, rung);
}

void RunLedger::Offer(size_t index, size_t rung) {
  const EvaluationRecord& record = result_.history[index];
  if (record.eval_failed) return;
  // Strict > keeps the earliest of equal scores.
  if (!has_incumbent_ || rung > incumbent_rung_ ||
      (rung == incumbent_rung_ &&
       record.score > result_.history[incumbent_].score)) {
    has_incumbent_ = true;
    incumbent_ = index;
    incumbent_rung_ = rung;
  }
}

void RunLedger::SaveTo(CheckpointState* state) const {
  state->history = result_.history;
  state->num_evaluations = result_.num_evaluations;
  state->total_instances = result_.total_instances;
  state->faults = result_.faults;
}

void RunLedger::Restore(const CheckpointState& state,
                        const std::vector<size_t>& rungs) {
  BHPO_CHECK_EQ(rungs.size(), state.history.size());
  result_.history = state.history;
  result_.num_evaluations = state.num_evaluations;
  result_.total_instances = state.total_instances;
  result_.faults = state.faults;
  has_incumbent_ = false;
  for (size_t i = 0; i < rungs.size(); ++i) Offer(i, rungs[i]);
}

Result<HpoResult> RunLedger::Finish() && {
  if (!has_incumbent_) {
    return Status::Unavailable(
        "no incumbent: all " + std::to_string(result_.num_evaluations) +
        " evaluations failed");
  }
  result_.best_config = result_.history[incumbent_].config;
  result_.best_score = result_.history[incumbent_].score;
  return std::move(result_);
}

Result<FinalEvaluation> EvaluateFinalConfig(const Configuration& config,
                                            const Dataset& train,
                                            const Dataset& test,
                                            EvalMetric metric,
                                            const FactoryOptions& options) {
  BHPO_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                        FitFinalModel(config, train, options));
  FinalEvaluation out;
  out.train_metric = EvaluateModel(*model, train, metric);
  out.test_metric = EvaluateModel(*model, test, metric);
  return out;
}

Result<std::unique_ptr<Model>> FitFinalModel(const Configuration& config,
                                             const Dataset& train,
                                             const FactoryOptions& options) {
  BHPO_ASSIGN_OR_RETURN(ModelFactory factory,
                        MakeModelFactory(config, options));
  std::unique_ptr<Model> model = factory();
  BHPO_RETURN_NOT_OK(model->Fit(train));
  return model;
}

}  // namespace bhpo
