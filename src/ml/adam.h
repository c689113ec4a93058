#ifndef BHPO_ML_ADAM_H_
#define BHPO_ML_ADAM_H_

#include <span>
#include <vector>

namespace bhpo {

// Adam parameter updater (Kingma & Ba 2015) with scikit-learn's default
// moments, matching MLP's `adam` solver. Works on one flat parameter vector
// (the MLP's parameter arena) and owns first/second moment buffers of the
// same length, sized on the first Step; the length must stay fixed.
class AdamUpdater {
 public:
  AdamUpdater(double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8);

  void Step(std::span<double> params, std::span<const double> grads,
            double lr);

 private:
  double beta1_;
  double beta2_;
  double epsilon_;
  long t_ = 0;
  std::vector<double> m_;
  std::vector<double> v_;
};

}  // namespace bhpo

#endif  // BHPO_ML_ADAM_H_
