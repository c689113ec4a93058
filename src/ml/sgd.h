#ifndef BHPO_ML_SGD_H_
#define BHPO_ML_SGD_H_

#include <span>
#include <vector>

namespace bhpo {

// Minibatch SGD parameter updater with (Nesterov) momentum, matching
// scikit-learn MLP's `sgd` solver (Table III sweeps momentum over
// 0.7/0.8/0.9). Works on one flat parameter vector (the MLP's parameter
// arena) and owns a velocity buffer of the same length, sized on the first
// Step; the length must stay fixed.
class SgdUpdater {
 public:
  explicit SgdUpdater(double momentum = 0.9, bool nesterov = true);

  // params[j] -= update derived from grads[j] at learning rate lr.
  void Step(std::span<double> params, std::span<const double> grads,
            double lr);

  double momentum() const { return momentum_; }

 private:
  double momentum_;
  bool nesterov_;
  std::vector<double> velocity_;
};

}  // namespace bhpo

#endif  // BHPO_ML_SGD_H_
