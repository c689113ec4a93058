#ifndef BHPO_ML_ACTIVATIONS_H_
#define BHPO_ML_ACTIVATIONS_H_

#include <string>

#include "common/matrix.h"
#include "common/status.h"

namespace bhpo {

// Hidden-layer activation functions, matching scikit-learn MLP's
// `activation` hyperparameter values (Table III searches over
// logistic/tanh/relu).
enum class Activation { kIdentity, kLogistic, kTanh, kRelu };

Result<Activation> ActivationFromString(const std::string& name);
const char* ActivationToString(Activation activation);

// Applies the activation elementwise in place.
void ApplyActivation(Activation activation, MatrixView values);

// Given already-activated values a = act(z), multiplies each entry of
// `values` (same shape) by act'(z) in place. All supported activations
// admit this form: logistic: a(1-a); tanh: 1-a^2; relu: 1[a > 0];
// identity: 1.
void MultiplyByActivationDerivative(Activation activation,
                                    ConstMatrixView activated,
                                    MatrixView values);

// Row-wise softmax in place (numerically stabilized by the row max).
void SoftmaxRows(MatrixView logits);

namespace internal {

// The tanh activation is computed in-tree, with the bits of glibc 2.36's
// FMA build of tanh (fdlibm's formula over its expm1, with the same fused
// multiply-adds) on every host. It comes in three bodies with identical
// results: the scalar reference through std::fma, the same scalar code
// compiled for hardware FMA, and an 8-lane AVX-512F body. ApplyActivation
// runs the 8-lane body when the CPU has AVX-512F, else the FMA scalar body
// when it has FMA, else the reference; the choice is made once per process.
// Exposed so bit-identity tests can run each body and benches can report
// which ran.
enum class TanhBody { kScalar, kFma, kAvx512 };

bool TanhBodySupported(TanhBody body);
TanhBody DispatchedTanhBody();
// "scalar", "fma" or "avx512".
const char* TanhBodyName(TanhBody body);

// The scalar reference body.
double Tanh(double x);
// x[i] = tanh(x[i]) for i < n, through `body`, which must be supported.
void TanhInPlace(TanhBody body, double* x, size_t n);

}  // namespace internal

}  // namespace bhpo

#endif  // BHPO_ML_ACTIVATIONS_H_
