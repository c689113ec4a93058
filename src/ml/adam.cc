#include "ml/adam.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"

namespace bhpo {

AdamUpdater::AdamUpdater(double beta1, double beta2, double epsilon)
    : beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  BHPO_CHECK(beta1 >= 0.0 && beta1 < 1.0);
  BHPO_CHECK(beta2 >= 0.0 && beta2 < 1.0);
  BHPO_CHECK_GT(epsilon, 0.0);
}

void AdamUpdater::Step(std::span<double> params,
                       std::span<const double> grads, double lr) {
  BHPO_CHECK_EQ(params.size(), grads.size());
  if (m_.empty()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
  }
  BHPO_CHECK_EQ(m_.size(), params.size());

  ++t_;
  double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  double step = lr * std::sqrt(bias2) / bias1;

  double* p = params.data();
  const double* g = grads.data();
  double* m = m_.data();
  double* v = v_.data();
  size_t n = params.size();
  size_t j = 0;
#if defined(__SSE2__)
  // The scalar formulas below, two lanes at a time: every operation is an
  // IEEE add, multiply, divide or square root, so each lane rounds exactly
  // as the scalar loop does. (std::sqrt alone would not vectorize: it may
  // set errno.)
  const __m128d beta1 = _mm_set1_pd(beta1_);
  const __m128d beta2 = _mm_set1_pd(beta2_);
  const __m128d one_minus_beta1 = _mm_set1_pd(1.0 - beta1_);
  const __m128d one_minus_beta2 = _mm_set1_pd(1.0 - beta2_);
  const __m128d step_v = _mm_set1_pd(step);
  const __m128d epsilon = _mm_set1_pd(epsilon_);
  for (; j + 2 <= n; j += 2) {
    __m128d gj = _mm_loadu_pd(g + j);
    __m128d mj = _mm_add_pd(_mm_mul_pd(beta1, _mm_loadu_pd(m + j)),
                            _mm_mul_pd(one_minus_beta1, gj));
    __m128d vj =
        _mm_add_pd(_mm_mul_pd(beta2, _mm_loadu_pd(v + j)),
                   _mm_mul_pd(_mm_mul_pd(one_minus_beta2, gj), gj));
    _mm_storeu_pd(m + j, mj);
    _mm_storeu_pd(v + j, vj);
    __m128d update = _mm_div_pd(_mm_mul_pd(step_v, mj),
                                _mm_add_pd(_mm_sqrt_pd(vj), epsilon));
    _mm_storeu_pd(p + j, _mm_sub_pd(_mm_loadu_pd(p + j), update));
  }
#endif
  for (; j < n; ++j) {
    m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
    v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
    p[j] -= step * m[j] / (std::sqrt(v[j]) + epsilon_);
  }
}

}  // namespace bhpo
