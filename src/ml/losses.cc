#include "ml/losses.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace bhpo {

namespace {
constexpr double kProbClip = 1e-10;
}  // namespace

double CrossEntropyLoss(ConstMatrixView probabilities,
                        const std::vector<int>& labels) {
  BHPO_CHECK_EQ(probabilities.rows, labels.size());
  if (labels.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    BHPO_CHECK(labels[i] >= 0 &&
               labels[i] < static_cast<int>(probabilities.cols));
    double p = std::clamp(probabilities.Row(i)[labels[i]], kProbClip,
                          1.0 - kProbClip);
    total -= std::log(p);
  }
  return total / static_cast<double>(labels.size());
}

double HalfMseLoss(ConstMatrixView predictions,
                   const std::vector<double>& targets) {
  BHPO_CHECK_EQ(predictions.rows, targets.size());
  BHPO_CHECK_EQ(predictions.cols, 1u);
  if (targets.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    double d = predictions.data[i] - targets[i];
    total += d * d;
  }
  return 0.5 * total / static_cast<double>(targets.size());
}

void OutputDeltaClassification(ConstMatrixView probabilities,
                               const std::vector<int>& labels,
                               MatrixView delta) {
  BHPO_CHECK_EQ(probabilities.rows, labels.size());
  BHPO_CHECK(delta.rows == probabilities.rows &&
             delta.cols == probabilities.cols);
  double inv_n = 1.0 / static_cast<double>(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const double* p = probabilities.Row(i);
    double* d = delta.Row(i);
    BHPO_CHECK(labels[i] >= 0 && labels[i] < static_cast<int>(delta.cols));
    std::copy(p, p + delta.cols, d);
    d[labels[i]] -= 1.0;
    for (size_t c = 0; c < delta.cols; ++c) d[c] *= inv_n;
  }
}

void OutputDeltaRegression(ConstMatrixView predictions,
                           const std::vector<double>& targets,
                           MatrixView delta) {
  BHPO_CHECK_EQ(predictions.rows, targets.size());
  BHPO_CHECK_EQ(predictions.cols, 1u);
  BHPO_CHECK(delta.rows == predictions.rows && delta.cols == 1u);
  double inv_n = 1.0 / static_cast<double>(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    delta.data[i] = (predictions.data[i] - targets[i]) * inv_n;
  }
}

}  // namespace bhpo
