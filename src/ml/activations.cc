#include "ml/activations.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace bhpo {

Result<Activation> ActivationFromString(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "logistic") return Activation::kLogistic;
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  return Status::InvalidArgument("unknown activation '" + name + "'");
}

const char* ActivationToString(Activation activation) {
  switch (activation) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kLogistic:
      return "logistic";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
  }
  return "?";
}

void ApplyActivation(Activation activation, MatrixView values) {
  double* x = values.data;
  size_t n = values.size();
  switch (activation) {
    case Activation::kIdentity:
      return;
    case Activation::kLogistic:
      for (size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) x[i] = std::max(0.0, x[i]);
      return;
  }
}

void MultiplyByActivationDerivative(Activation activation,
                                    ConstMatrixView activated,
                                    MatrixView values) {
  BHPO_CHECK(activated.rows == values.rows && activated.cols == values.cols);
  const double* a = activated.data;
  double* v = values.data;
  size_t n = values.size();
  switch (activation) {
    case Activation::kIdentity:
      return;
    case Activation::kLogistic:
      for (size_t i = 0; i < n; ++i) v[i] *= a[i] * (1.0 - a[i]);
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) v[i] *= 1.0 - a[i] * a[i];
      return;
    case Activation::kRelu: {
      // Branch-free: ReLU outputs are positive or zero at random, so a
      // branch per entry mispredicts about half the time.
      size_t i = 0;
#if defined(__SSE2__)
      const __m128d zero = _mm_setzero_pd();
      const __m128d one = _mm_set1_pd(1.0);
      for (; i + 2 <= n; i += 2) {
        __m128d d = _mm_and_pd(_mm_cmpgt_pd(_mm_loadu_pd(a + i), zero), one);
        _mm_storeu_pd(v + i, _mm_mul_pd(_mm_loadu_pd(v + i), d));
      }
#endif
      for (; i < n; ++i) v[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      return;
    }
  }
}

void SoftmaxRows(MatrixView logits) {
  for (size_t r = 0; r < logits.rows; ++r) {
    double* p = logits.Row(r);
    double row_max = p[0];
    for (size_t c = 1; c < logits.cols; ++c) {
      row_max = std::max(row_max, p[c]);
    }
    double total = 0.0;
    for (size_t c = 0; c < logits.cols; ++c) {
      p[c] = std::exp(p[c] - row_max);
      total += p[c];
    }
    for (size_t c = 0; c < logits.cols; ++c) p[c] /= total;
  }
}

}  // namespace bhpo
