#ifndef BHPO_ML_MLP_H_
#define BHPO_ML_MLP_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/dataset.h"
#include "ml/activations.h"
#include "ml/model.h"
#include "ml/schedules.h"

namespace bhpo {

// Training algorithm, matching scikit-learn MLP's `solver` hyperparameter
// (Table III searches over lbfgs/sgd/adam).
enum class Solver { kLbfgs, kSgd, kAdam };

Result<Solver> SolverFromString(const std::string& name);
const char* SolverToString(Solver solver);

// Hyperparameters of the multilayer perceptron, mirroring scikit-learn's
// MLPClassifier/MLPRegressor. Field names follow sklearn so the Table III
// search space maps one-to-one.
struct MlpConfig {
  std::vector<size_t> hidden_layer_sizes = {100};
  Activation activation = Activation::kRelu;
  Solver solver = Solver::kAdam;
  // L2 penalty coefficient.
  double alpha = 1e-4;
  // 0 = "auto": min(200, n).
  size_t batch_size = 0;
  LearningRateSchedule learning_rate = LearningRateSchedule::kConstant;
  double learning_rate_init = 1e-3;
  // invscaling exponent.
  double power_t = 0.5;
  // Epochs (sgd/adam) or L-BFGS iterations.
  int max_iter = 80;
  double tol = 1e-4;
  double momentum = 0.9;
  bool nesterovs_momentum = true;
  bool early_stopping = false;
  double validation_fraction = 0.1;
  int n_iter_no_change = 10;
  uint64_t seed = 0;

  Status Validate() const;
};

// Multilayer perceptron for classification (softmax + cross-entropy) or
// regression (identity + half-MSE); the head is chosen by the task of the
// dataset passed to Fit. This is the search target of every experiment in
// the paper.
class MlpModel : public Model {
 public:
  explicit MlpModel(MlpConfig config) : config_(std::move(config)) {}

  const MlpConfig& config() const { return config_; }
  bool fitted() const { return fitted_; }
  // Training loss of the final epoch / L-BFGS iterate.
  double final_loss() const { return final_loss_; }
  // Epochs (sgd/adam) or iterations (lbfgs) actually run.
  int iterations_run() const { return iterations_run_; }

  using Model::Fit;
  using Model::PredictLabels;
  using Model::PredictValues;

  // Minibatch solvers (sgd/adam) gather only the current batch's rows from
  // the view; L-BFGS materializes the view once (full-batch solver).
  Status Fit(const DatasetView& train) override;
  std::vector<int> PredictLabels(const Matrix& features) const override;
  std::vector<double> PredictValues(const Matrix& features) const override;

  // Classification only: row-wise class probabilities.
  Matrix PredictProba(const Matrix& features) const;

  // Regularized loss over `data` at the current parameters, with its
  // gradient written to *grad in the parameter arena's layout (the L2 term
  // is scaled by 1/data.n(), scikit-learn's per-batch convention). Exposed
  // for the finite-difference gradient tests.
  double ComputeLossAndGradients(const Dataset& data,
                                 std::vector<double>* grad) const;

  // The parameter arena: every layer's weights (fan_in x fan_out, row-major)
  // in layer order, then every layer's bias (1 x fan_out). The optimizers
  // step this one vector; the views below index into it.
  const std::vector<double>& parameters() const { return params_; }
  // Entries may be changed in place; the arena's size is fixed by the
  // layer layout.
  std::span<double> mutable_parameters() { return params_; }
  size_t num_layers() const { return layers_.size(); }
  ConstMatrixView weights(size_t l) const {
    return WeightView(params_.data(), l);
  }
  ConstMatrixView bias(size_t l) const {
    return BiasView(params_.data(), l);
  }

  // Initializes parameters for the given feature/output sizes without
  // training (used by tests and by Fit itself).
  void InitializeParameters(size_t num_features, size_t num_outputs,
                            uint64_t seed);

 private:
  friend Status SaveMlp(const MlpModel& model, std::ostream& out);
  friend Result<std::unique_ptr<MlpModel>> LoadMlp(std::istream& in);

  // Where layer l lives in the parameter arena.
  struct Layer {
    size_t fan_in;
    size_t fan_out;
    size_t weight_offset;
    size_t bias_offset;
  };
  // Per-fit scratch (activations, deltas, transposed weights, minibatch
  // buffers); defined in mlp.cc.
  struct Workspace;

  // Lays out the arena for layer widths sizes[0] (features) .. sizes.back()
  // (outputs); parameter values are left zero.
  void AllocateLayers(const std::vector<size_t>& sizes);
  ConstMatrixView WeightView(const double* base, size_t l) const {
    BHPO_CHECK_LT(l, layers_.size());
    const Layer& layer = layers_[l];
    return {base + layer.weight_offset, layer.fan_in, layer.fan_out};
  }
  ConstMatrixView BiasView(const double* base, size_t l) const {
    BHPO_CHECK_LT(l, layers_.size());
    const Layer& layer = layers_[l];
    return {base + layer.bias_offset, 1, layer.fan_out};
  }

  // Runs the network with parameters `params` (arena layout) on `input`,
  // read in place; ws->activations[l] receives layer l's output, the last
  // one probabilities (classification) or predictions (regression).
  void Forward(const double* params, ConstMatrixView input,
               Workspace* ws) const;

  // Shared loss/gradient core at parameters `params`; exactly one of
  // labels/targets is non-null, matching the task the model was initialized
  // for. Writes the gradient (arena layout) to `grad`.
  double LossAndGradients(const double* params, ConstMatrixView x,
                          const std::vector<int>* labels,
                          const std::vector<double>* targets, double* grad,
                          Workspace* ws) const;

  // Forward pass at the current parameters; returns the output layer.
  Matrix Predict(const Matrix& features) const;

  Status FitSgdFamily(const DatasetView& train);
  Status FitLbfgs(const DatasetView& train);
  Status FitLbfgs(const Dataset& train);

  MlpConfig config_;
  Task task_ = Task::kClassification;
  size_t num_outputs_ = 0;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  bool fitted_ = false;
  double final_loss_ = 0.0;
  int iterations_run_ = 0;
};

}  // namespace bhpo

#endif  // BHPO_ML_MLP_H_
