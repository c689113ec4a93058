#include "ml/sgd.h"

#include "common/check.h"

namespace bhpo {

SgdUpdater::SgdUpdater(double momentum, bool nesterov)
    : momentum_(momentum), nesterov_(nesterov) {
  BHPO_CHECK(momentum >= 0.0 && momentum < 1.0);
}

void SgdUpdater::Step(std::span<double> params, std::span<const double> grads,
                      double lr) {
  BHPO_CHECK_EQ(params.size(), grads.size());
  if (velocity_.empty()) velocity_.assign(params.size(), 0.0);
  BHPO_CHECK_EQ(velocity_.size(), params.size());

  double* p = params.data();
  const double* g = grads.data();
  double* v = velocity_.data();
  for (size_t j = 0; j < params.size(); ++j) {
    // v = momentum * v - lr * grad
    v[j] *= momentum_;
    v[j] += -lr * g[j];
    if (nesterov_) {
      // p += momentum * v - lr * grad (look-ahead step).
      p[j] += momentum_ * v[j];
      p[j] += -lr * g[j];
    } else {
      p[j] += v[j];
    }
  }
}

}  // namespace bhpo
