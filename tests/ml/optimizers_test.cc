#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ml/adam.h"
#include "ml/sgd.h"

namespace bhpo {
namespace {

// Minimizing f(p) = 0.5 * ||p - target||^2: gradient is (p - target).
std::vector<double> QuadraticGrad(const std::vector<double>& params,
                                  const std::vector<double>& targets) {
  std::vector<double> grads(params.size());
  for (size_t i = 0; i < params.size(); ++i) grads[i] = params[i] - targets[i];
  return grads;
}

double DistanceTo(const std::vector<double>& params,
                  const std::vector<double>& targets) {
  double acc = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    double d = params[i] - targets[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

TEST(SgdUpdaterTest, ConvergesOnQuadratic) {
  // A 2x2 weight block followed by a 1x3 bias block, as in the MLP arena.
  std::vector<double> params = {5, 5, 5, 5, -4, -4, -4};
  std::vector<double> targets = {1, 1, 1, 1, 2, 2, 2};
  SgdUpdater sgd(0.9, true);
  for (int step = 0; step < 300; ++step) {
    sgd.Step(params, QuadraticGrad(params, targets), 0.05);
  }
  EXPECT_LT(DistanceTo(params, targets), 1e-3);
}

TEST(SgdUpdaterTest, ZeroMomentumIsPlainGradientDescent) {
  std::vector<double> params = {10.0};
  std::vector<double> targets = {0.0};
  SgdUpdater sgd(0.0, false);
  sgd.Step(params, QuadraticGrad(params, targets), 0.1);
  // p <- 10 - 0.1 * 10 = 9.
  EXPECT_NEAR(params[0], 9.0, 1e-12);
}

TEST(SgdUpdaterTest, MomentumAcceleratesOverPlain) {
  auto run = [](double momentum, bool nesterov) {
    std::vector<double> params = {10.0};
    std::vector<double> targets = {0.0};
    SgdUpdater sgd(momentum, nesterov);
    for (int i = 0; i < 30; ++i) {
      sgd.Step(params, QuadraticGrad(params, targets), 0.01);
    }
    return std::fabs(params[0]);
  };
  EXPECT_LT(run(0.9, true), run(0.0, false));
}

TEST(AdamUpdaterTest, ConvergesOnQuadratic) {
  std::vector<double> params(9, 4.0);
  std::vector<double> targets(9, -1.0);
  AdamUpdater adam;
  for (int step = 0; step < 2000; ++step) {
    adam.Step(params, QuadraticGrad(params, targets), 0.05);
  }
  EXPECT_LT(DistanceTo(params, targets), 1e-2);
}

TEST(AdamUpdaterTest, FirstStepHasUnitScaleInvariance) {
  // Adam's first update magnitude is ~lr regardless of gradient scale.
  for (double scale : {1.0, 100.0}) {
    std::vector<double> params = {scale};
    std::vector<double> targets = {0.0};
    AdamUpdater adam;
    adam.Step(params, QuadraticGrad(params, targets), 0.1);
    EXPECT_NEAR(scale - params[0], 0.1, 0.02) << "scale=" << scale;
  }
}

TEST(AdamUpdaterTest, HandlesZeroGradient) {
  std::vector<double> params = {1.0};
  std::vector<double> grads = {0.0};
  AdamUpdater adam;
  adam.Step(params, grads, 0.1);
  EXPECT_NEAR(params[0], 1.0, 1e-9);
}

TEST(UpdaterDeathTest, ShapeMismatchAborts) {
  std::vector<double> params(4);
  std::vector<double> grads(9);
  SgdUpdater sgd;
  EXPECT_DEATH(sgd.Step(params, grads, 0.1), "BHPO_CHECK");
  // The length is fixed by the first step.
  AdamUpdater adam;
  adam.Step(params, std::vector<double>(4), 0.1);
  std::vector<double> longer(5);
  EXPECT_DEATH(adam.Step(longer, std::vector<double>(5), 0.1), "BHPO_CHECK");
}

}  // namespace
}  // namespace bhpo
