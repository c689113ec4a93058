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

}  // namespace bhpo

#endif  // BHPO_ML_ACTIVATIONS_H_
