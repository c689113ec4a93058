#ifndef BHPO_ML_LOSSES_H_
#define BHPO_ML_LOSSES_H_

#include <vector>

#include "common/matrix.h"

namespace bhpo {

// Mean cross-entropy of row-wise class probabilities against integer
// labels, clipped away from log(0) as scikit-learn does.
double CrossEntropyLoss(ConstMatrixView probabilities,
                        const std::vector<int>& labels);

// 0.5 * mean squared error of predictions (n x 1) against targets; the 0.5
// factor matches the gradient convention used by the MLP backward pass.
double HalfMseLoss(ConstMatrixView predictions,
                   const std::vector<double>& targets);

// Output-layer error for both heads. For softmax + cross-entropy and for
// identity + half-MSE the gradient wrt the pre-activation is identical:
// (output - onehot(target)) / n  resp. (output - target) / n. Writes it
// into `delta`, which must already have the outputs' shape.
void OutputDeltaClassification(ConstMatrixView probabilities,
                               const std::vector<int>& labels,
                               MatrixView delta);
void OutputDeltaRegression(ConstMatrixView predictions,
                           const std::vector<double>& targets,
                           MatrixView delta);

}  // namespace bhpo

#endif  // BHPO_ML_LOSSES_H_
