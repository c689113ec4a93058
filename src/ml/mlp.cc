#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/gather.h"
#include "common/rng.h"
#include "data/split.h"
#include "ml/adam.h"
#include "ml/lbfgs.h"
#include "ml/losses.h"
#include "ml/sgd.h"

namespace bhpo {

Result<Solver> SolverFromString(const std::string& name) {
  if (name == "lbfgs") return Solver::kLbfgs;
  if (name == "sgd") return Solver::kSgd;
  if (name == "adam") return Solver::kAdam;
  return Status::InvalidArgument("unknown solver '" + name + "'");
}

const char* SolverToString(Solver solver) {
  switch (solver) {
    case Solver::kLbfgs:
      return "lbfgs";
    case Solver::kSgd:
      return "sgd";
    case Solver::kAdam:
      return "adam";
  }
  return "?";
}

Status MlpConfig::Validate() const {
  if (hidden_layer_sizes.empty()) {
    return Status::InvalidArgument("need at least one hidden layer");
  }
  for (size_t h : hidden_layer_sizes) {
    if (h == 0) return Status::InvalidArgument("hidden layer of size 0");
  }
  if (learning_rate_init <= 0.0) {
    return Status::InvalidArgument("learning_rate_init must be positive");
  }
  if (alpha < 0.0) return Status::InvalidArgument("alpha must be >= 0");
  if (max_iter < 1) return Status::InvalidArgument("max_iter must be >= 1");
  if (momentum < 0.0 || momentum >= 1.0) {
    return Status::InvalidArgument("momentum must be in [0, 1)");
  }
  if (validation_fraction <= 0.0 || validation_fraction >= 1.0) {
    return Status::InvalidArgument("validation_fraction must be in (0, 1)");
  }
  if (n_iter_no_change < 1) {
    return Status::InvalidArgument("n_iter_no_change must be >= 1");
  }
  if (tol < 0.0) return Status::InvalidArgument("tol must be >= 0");
  return Status::OK();
}

// Per-fit scratch: everything Forward and the backward pass write, sized
// once for at most `rows` input rows, so a fit allocates nothing per step.
// Views into it take the current row count.
struct MlpModel::Workspace {
  Workspace(const std::vector<Layer>& layers, size_t rows, bool training)
      : rows(rows) {
    size_t widest = 0;
    size_t largest_weight = 0;
    for (const Layer& layer : layers) {
      activations.emplace_back(rows * layer.fan_out);
      widest = std::max(widest, layer.fan_out);
      largest_weight = std::max(largest_weight, layer.fan_in * layer.fan_out);
    }
    if (!training) return;
    delta.resize(rows * widest);
    back.resize(rows * widest);
    transposed_weight.resize(largest_weight);
  }

  MatrixView Output(size_t l, size_t n, size_t cols) {
    return {activations[l].data(), n, cols};
  }

  size_t rows;
  std::vector<std::vector<double>> activations;  // [l]: layer l's output
  std::vector<double> delta;
  std::vector<double> back;
  std::vector<double> transposed_weight;
  // Minibatch gather buffers, sized by the sgd/adam fit.
  std::vector<double> batch_x;
  std::vector<size_t> batch_rows;
  std::vector<int> batch_labels;
  std::vector<double> batch_targets;
};

void MlpModel::AllocateLayers(const std::vector<size_t>& sizes) {
  BHPO_CHECK_GE(sizes.size(), 2u);
  layers_.clear();
  size_t offset = 0;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    layers_.push_back({sizes[l], sizes[l + 1], offset, 0});
    offset += sizes[l] * sizes[l + 1];
  }
  for (Layer& layer : layers_) {
    layer.bias_offset = offset;
    offset += layer.fan_out;
  }
  params_.assign(offset, 0.0);
}

void MlpModel::InitializeParameters(size_t num_features, size_t num_outputs,
                                    uint64_t seed) {
  BHPO_CHECK_GT(num_features, 0u);
  BHPO_CHECK_GT(num_outputs, 0u);
  num_outputs_ = num_outputs;

  std::vector<size_t> sizes;
  sizes.push_back(num_features);
  for (size_t h : config_.hidden_layer_sizes) sizes.push_back(h);
  sizes.push_back(num_outputs);
  AllocateLayers(sizes);

  // Glorot uniform; scikit-learn uses factor 2 for logistic, 6 otherwise.
  // Draw order: layer by layer, its weights (row-major) then its bias.
  double factor = config_.activation == Activation::kLogistic ? 2.0 : 6.0;
  Rng rng(seed);
  for (const Layer& layer : layers_) {
    double limit = std::sqrt(
        factor / static_cast<double>(layer.fan_in + layer.fan_out));
    double* w = params_.data() + layer.weight_offset;
    for (size_t i = 0; i < layer.fan_in * layer.fan_out; ++i) {
      w[i] = rng.Uniform(-limit, limit);
    }
    double* b = params_.data() + layer.bias_offset;
    for (size_t i = 0; i < layer.fan_out; ++i) {
      b[i] = rng.Uniform(-limit, limit);
    }
  }
}

void MlpModel::Forward(const double* params, ConstMatrixView input,
                       Workspace* ws) const {
  BHPO_CHECK(!layers_.empty()) << "Forward before InitializeParameters";
  BHPO_CHECK_EQ(input.cols, layers_.front().fan_in);
  BHPO_CHECK_LE(input.rows, ws->rows);
  ConstMatrixView prev = input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    MatrixView z = ws->Output(l, input.rows, layers_[l].fan_out);
    MatMulInto(prev, WeightView(params, l), z);
    const double* b = BiasView(params, l).data;
    for (size_t r = 0; r < z.rows; ++r) {
      double* p = z.Row(r);
      for (size_t c = 0; c < z.cols; ++c) p[c] += b[c];
    }
    if (l + 1 < layers_.size()) {
      ApplyActivation(config_.activation, z);
    } else if (task_ == Task::kClassification) {
      SoftmaxRows(z);
    }  // Regression head is identity.
    prev = z;
  }
}

double MlpModel::LossAndGradients(const double* params, ConstMatrixView x,
                                  const std::vector<int>* labels,
                                  const std::vector<double>* targets,
                                  double* grad, Workspace* ws) const {
  BHPO_CHECK(grad != nullptr && ws != nullptr);
  BHPO_CHECK_GT(x.rows, 0u);
  size_t n = x.rows;
  size_t last = layers_.size() - 1;

  Forward(params, x, ws);
  ConstMatrixView output = ws->Output(last, n, layers_[last].fan_out);

  double inv_n = 1.0 / static_cast<double>(n);
  double loss;
  // The delta of the layer being back-propagated, and the buffer the next
  // one is built in; they swap every layer.
  double* delta = ws->delta.data();
  double* back = ws->back.data();
  MatrixView output_delta(delta, n, output.cols);
  if (task_ == Task::kClassification) {
    BHPO_CHECK(labels != nullptr);
    loss = CrossEntropyLoss(output, *labels);
    OutputDeltaClassification(output, *labels, output_delta);
  } else {
    BHPO_CHECK(targets != nullptr);
    loss = HalfMseLoss(output, *targets);
    OutputDeltaRegression(output, *targets, output_delta);
  }
  // L2 penalty (weights only, like scikit-learn), summed layer by layer.
  double l2 = 0.0;
  for (size_t l = 0; l < layers_.size(); ++l) {
    ConstMatrixView w = WeightView(params, l);
    double layer_sum = 0.0;
    for (size_t i = 0; i < w.size(); ++i) layer_sum += w.data[i] * w.data[i];
    l2 += layer_sum;
  }
  loss += 0.5 * config_.alpha * l2 * inv_n;

  double decay = config_.alpha * inv_n;
  for (size_t l = layers_.size(); l-- > 0;) {
    const Layer& layer = layers_[l];
    ConstMatrixView d(delta, n, layer.fan_out);
    ConstMatrixView in =
        l == 0 ? x : ConstMatrixView(ws->Output(l - 1, n, layer.fan_in));
    ConstMatrixView w = WeightView(params, l);

    MatrixView weight_grad(grad + layer.weight_offset, layer.fan_in,
                           layer.fan_out);
    TransposeMatMulInto(in, d, weight_grad);
    for (size_t i = 0; i < w.size(); ++i) {
      weight_grad.data[i] += decay * w.data[i];
    }
    double* bias_grad = grad + layer.bias_offset;
    std::fill(bias_grad, bias_grad + layer.fan_out, 0.0);
    for (size_t r = 0; r < n; ++r) {
      const double* row = d.Row(r);
      for (size_t c = 0; c < layer.fan_out; ++c) bias_grad[c] += row[c];
    }
    if (l > 0) {
      MatrixView next(back, n, layer.fan_in);
      MatMulTransposeInto(d, w,
                          MatrixView(ws->transposed_weight.data(),
                                     layer.fan_out, layer.fan_in),
                          next);
      MultiplyByActivationDerivative(config_.activation, in, next);
      std::swap(delta, back);
    }
  }
  return loss;
}

double MlpModel::ComputeLossAndGradients(const Dataset& data,
                                         std::vector<double>* grad) const {
  BHPO_CHECK(grad != nullptr);
  Workspace ws(layers_, data.n(), /*training=*/true);
  grad->assign(params_.size(), 0.0);
  if (task_ == Task::kClassification) {
    return LossAndGradients(params_.data(), data.features(), &data.labels(),
                            nullptr, grad->data(), &ws);
  }
  return LossAndGradients(params_.data(), data.features(), nullptr,
                          &data.targets(), grad->data(), &ws);
}

Status MlpModel::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  task_ = train.task();
  size_t num_outputs = train.is_classification()
                           ? static_cast<size_t>(train.num_classes())
                           : 1;
  InitializeParameters(train.num_features(), num_outputs, config_.seed);
  fitted_ = true;  // Parameters exist; prediction is valid from here on.
  iterations_run_ = 0;

  if (config_.solver == Solver::kLbfgs) {
    return FitLbfgs(train);
  }
  return FitSgdFamily(train);
}

Status MlpModel::FitSgdFamily(const DatasetView& train) {
  size_t n = train.n();
  size_t batch = config_.batch_size == 0
                     ? std::min<size_t>(200, n)
                     : std::min(config_.batch_size, n);

  // Optional validation holdout for early stopping. The holdout is an
  // index-level split of the view; only the small validation side is
  // materialized (it is scored every epoch), the training side stays a
  // view.
  DatasetView fit_view = train;
  Dataset val_set;
  bool use_validation = config_.early_stopping && n >= 10;
  if (use_validation) {
    Rng split_rng(config_.seed + 1);
    BHPO_ASSIGN_OR_RETURN(
        IndexSplit holdout,
        SplitViewIndices(train, config_.validation_fraction, &split_rng,
                         /*stratified=*/train.is_classification()));
    val_set = train.ViewOf(holdout.test).Materialize();
    fit_view = train.ViewOf(holdout.train);
    batch = std::min(batch, fit_view.n());
  }

  LearningRate lr(config_.learning_rate, config_.learning_rate_init,
                  config_.power_t);
  SgdUpdater sgd(config_.momentum, config_.nesterovs_momentum);
  AdamUpdater adam;

  Rng shuffle_rng(config_.seed + 2);
  std::vector<size_t> order(fit_view.n());
  std::iota(order.begin(), order.end(), 0);

  double best_val_score = -1e300;
  double best_train_loss = 1e300;
  int stall = 0;
  std::vector<double> best_params;

  const Dataset& parent = fit_view.parent();
  const size_t d = parent.num_features();
  const double* features = parent.features().data().data();
  const bool classification = task_ == Task::kClassification;
  Workspace ws(layers_, batch, /*training=*/true);
  ws.batch_x.resize(batch * d);
  ws.batch_rows.resize(batch);
  std::vector<double> grad(params_.size());

  for (int epoch = 0; epoch < config_.max_iter; ++epoch) {
    shuffle_rng.Shuffle(&order);
    double loss_sum = 0.0;
    for (size_t start = 0; start < order.size(); start += batch) {
      size_t rows = std::min(start + batch, order.size()) - start;
      for (size_t i = 0; i < rows; ++i) {
        ws.batch_rows[i] = fit_view.parent_index(order[start + i]);
      }
      GatherRows(features, d, d, ws.batch_rows.data(), rows,
                 ws.batch_x.data());
      ConstMatrixView x(ws.batch_x.data(), rows, d);
      double batch_loss;
      if (classification) {
        ws.batch_labels.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          ws.batch_labels[i] = parent.label(ws.batch_rows[i]);
        }
        batch_loss = LossAndGradients(params_.data(), x, &ws.batch_labels,
                                      nullptr, grad.data(), &ws);
      } else {
        ws.batch_targets.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          ws.batch_targets[i] = parent.target(ws.batch_rows[i]);
        }
        batch_loss = LossAndGradients(params_.data(), x, nullptr,
                                      &ws.batch_targets, grad.data(), &ws);
      }
      loss_sum += batch_loss * static_cast<double>(rows);

      double step = lr.NextUpdateRate();
      if (config_.solver == Solver::kSgd) {
        sgd.Step(params_, grad, step);
      } else {
        adam.Step(params_, grad, step);
      }
    }
    double epoch_loss = loss_sum / static_cast<double>(fit_view.n());
    final_loss_ = epoch_loss;
    iterations_run_ = epoch + 1;

    if (!std::isfinite(epoch_loss)) {
      return Status::Internal("training diverged (non-finite loss)");
    }
    if (!lr.ReportEpochLoss(epoch_loss, config_.tol)) break;

    if (use_validation) {
      double score = EvaluateModel(*this, val_set);
      if (score > best_val_score + config_.tol) {
        best_val_score = score;
        best_params = params_;
        stall = 0;
      } else {
        if (++stall >= config_.n_iter_no_change) break;
      }
    } else {
      if (epoch_loss < best_train_loss - config_.tol) {
        best_train_loss = epoch_loss;
        stall = 0;
      } else {
        if (++stall >= config_.n_iter_no_change) break;
      }
    }
  }

  if (use_validation && !best_params.empty()) {
    params_ = std::move(best_params);
  }
  return Status::OK();
}

Status MlpModel::FitLbfgs(const DatasetView& train) {
  // L-BFGS is a full-batch solver: every objective evaluation reads the
  // whole training set, so a subset view is materialized once up front
  // instead of gathering per evaluation. The identity view trains straight
  // off the parent.
  if (train.is_full()) return FitLbfgs(train.parent());
  Dataset materialized = train.Materialize();
  return FitLbfgs(materialized);
}

Status MlpModel::FitLbfgs(const Dataset& train) {
  Workspace ws(layers_, train.n(), /*training=*/true);
  const std::vector<int>* labels =
      task_ == Task::kClassification ? &train.labels() : nullptr;
  const std::vector<double>* targets =
      task_ == Task::kClassification ? nullptr : &train.targets();
  // The minimizer evaluates trial points in its own buffers; the loss reads
  // the parameters straight from whichever vector it is handed and writes
  // the gradient straight into the minimizer's, so nothing is copied.
  ObjectiveFn objective = [&](const std::vector<double>& params,
                              std::vector<double>* grad) {
    return LossAndGradients(params.data(), train.features(), labels, targets,
                            grad->data(), &ws);
  };

  LbfgsOptions options;
  options.max_iterations = config_.max_iter;
  options.function_tolerance = config_.tol * 1e-3;
  BHPO_ASSIGN_OR_RETURN(LbfgsSummary summary,
                        MinimizeLbfgs(objective, &params_, options));
  final_loss_ = summary.final_objective;
  iterations_run_ = summary.iterations;
  if (!std::isfinite(final_loss_)) {
    return Status::Internal("lbfgs diverged (non-finite loss)");
  }
  return Status::OK();
}

Matrix MlpModel::Predict(const Matrix& features) const {
  Workspace ws(layers_, features.rows(), /*training=*/false);
  Forward(params_.data(), features, &ws);
  Matrix out(features.rows(), num_outputs_);
  std::copy(ws.activations.back().begin(), ws.activations.back().end(),
            out.data().begin());
  return out;
}

std::vector<int> MlpModel::PredictLabels(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictLabels before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix proba = Predict(features);
  std::vector<int> labels(proba.rows());
  for (size_t r = 0; r < proba.rows(); ++r) {
    const double* p = proba.Row(r);
    labels[r] = static_cast<int>(
        std::max_element(p, p + proba.cols()) - p);
  }
  return labels;
}

Matrix MlpModel::PredictProba(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  return Predict(features);
}

std::vector<double> MlpModel::PredictValues(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  Matrix out = Predict(features);
  return std::move(out.data());
}

}  // namespace bhpo
