#include "ml/losses.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(CrossEntropyTest, PerfectPredictionNearZero) {
  Matrix p = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_NEAR(CrossEntropyLoss(p, {0, 1}), 0.0, 1e-8);
}

TEST(CrossEntropyTest, UniformPredictionIsLogK) {
  Matrix p = Matrix::FromRows({{0.25, 0.25, 0.25, 0.25}});
  EXPECT_NEAR(CrossEntropyLoss(p, {2}), std::log(4.0), 1e-12);
}

TEST(CrossEntropyTest, ConfidentlyWrongIsLarge) {
  Matrix p = Matrix::FromRows({{0.999, 0.001}});
  EXPECT_GT(CrossEntropyLoss(p, {1}), 5.0);
}

TEST(CrossEntropyTest, ClipsZeroProbability) {
  Matrix p = Matrix::FromRows({{1.0, 0.0}});
  double loss = CrossEntropyLoss(p, {1});
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(HalfMseTest, KnownValue) {
  Matrix pred = Matrix::FromRows({{1.0}, {3.0}});
  // 0.5 * mean((1-0)^2, (3-1)^2) = 0.5 * 2.5 = 1.25.
  EXPECT_DOUBLE_EQ(HalfMseLoss(pred, {0.0, 1.0}), 1.25);
}

TEST(OutputDeltaClassificationTest, ProbMinusOneHotOverN) {
  Matrix p = Matrix::FromRows({{0.7, 0.3}, {0.4, 0.6}});
  Matrix delta(2, 2);
  OutputDeltaClassification(p, {0, 1}, delta);
  EXPECT_NEAR(delta(0, 0), (0.7 - 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(delta(0, 1), 0.3 / 2.0, 1e-12);
  EXPECT_NEAR(delta(1, 1), (0.6 - 1.0) / 2.0, 1e-12);
}

TEST(OutputDeltaClassificationTest, RowsSumToZero) {
  // Softmax rows sum to 1 and the one-hot subtracts exactly 1.
  Matrix p = Matrix::FromRows({{0.2, 0.5, 0.3}});
  Matrix delta(1, 3);
  OutputDeltaClassification(p, {1}, delta);
  EXPECT_NEAR(delta(0, 0) + delta(0, 1) + delta(0, 2), 0.0, 1e-12);
}

TEST(OutputDeltaRegressionTest, ResidualOverN) {
  Matrix pred = Matrix::FromRows({{2.0}, {5.0}});
  Matrix delta(2, 1);
  OutputDeltaRegression(pred, {1.0, 7.0}, delta);
  EXPECT_DOUBLE_EQ(delta(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(delta(1, 0), -1.0);
}

}  // namespace
}  // namespace bhpo
