#include "hpo/beta_weight.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hpo/scoring.h"

namespace bhpo {
namespace {

constexpr double kBetaMax = 10.0;

TEST(BetaWeightTest, MidpointIsHalfBetaMax) {
  // Figure 3: beta(50) = beta_max / 2.
  EXPECT_NEAR(BetaWeight(50.0, kBetaMax), kBetaMax / 2.0, 1e-12);
}

TEST(BetaWeightTest, EndpointsHitBetaMaxAndZero) {
  EXPECT_NEAR(BetaWeight(BetaGammaMin(kBetaMax), kBetaMax), kBetaMax, 1e-9);
  EXPECT_NEAR(BetaWeight(BetaGammaMax(kBetaMax), kBetaMax), 0.0, 1e-9);
}

TEST(BetaWeightTest, ClippingBeyondThresholds) {
  // Below gamma_min and above gamma_max the weight saturates.
  EXPECT_NEAR(BetaWeight(0.0, kBetaMax), kBetaMax, 1e-9);
  EXPECT_NEAR(BetaWeight(100.0, kBetaMax), 0.0, 1e-9);
  EXPECT_NEAR(BetaWeight(-5.0, kBetaMax), kBetaMax, 1e-9);
}

TEST(BetaWeightTest, MonotonicallyDecreasing) {
  double prev = BetaWeight(0.5, kBetaMax);
  for (double g = 1.0; g <= 100.0; g += 0.5) {
    double b = BetaWeight(g, kBetaMax);
    EXPECT_LE(b, prev + 1e-12) << "gamma=" << g;
    prev = b;
  }
}

TEST(BetaWeightTest, SymmetricAboutFiftyPercent) {
  // Section III-C: "a symmetric design for sizes larger than 50%".
  for (double d : {5.0, 15.0, 30.0, 45.0}) {
    double below = BetaWeight(50.0 - d, kBetaMax);
    double above = BetaWeight(50.0 + d, kBetaMax);
    EXPECT_NEAR(below - kBetaMax / 2.0, kBetaMax / 2.0 - above, 1e-9)
        << "d=" << d;
  }
}

TEST(BetaWeightTest, ThresholdFormulasMatchPaper) {
  EXPECT_NEAR(BetaGammaMin(kBetaMax), 50.0 * (1.0 - std::tanh(2.5)), 1e-12);
  EXPECT_NEAR(BetaGammaMax(kBetaMax), 50.0 * (1.0 + std::tanh(2.5)), 1e-12);
  // For beta_max = 10 these are ~0.67% and ~99.33%.
  EXPECT_NEAR(BetaGammaMin(kBetaMax), 0.669, 0.01);
  EXPECT_NEAR(BetaGammaMax(kBetaMax), 99.33, 0.01);
}

TEST(BetaWeightTest, SmallerBetaMaxNarrowsTheRange) {
  EXPECT_GT(BetaGammaMin(2.0), BetaGammaMin(10.0));
  EXPECT_LT(BetaGammaMax(2.0), BetaGammaMax(10.0));
  EXPECT_NEAR(BetaWeight(50.0, 2.0), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Property tests: the Equation 2 invariants must hold for ANY beta_max, not
// just the paper's 10.0, so each property is checked over a randomized
// beta_max sweep (fixed seed: the sweep is reproducible).
// ---------------------------------------------------------------------------

TEST(BetaWeightPropertyTest, MonotoneNonIncreasingForAnyBetaMax) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    double beta_max = rng.Uniform(0.1, 20.0);
    double prev = BetaWeight(0.0, beta_max);
    for (double g = 0.25; g <= 100.0; g += 0.25) {
      double b = BetaWeight(g, beta_max);
      EXPECT_LE(b, prev + 1e-12)
          << "beta_max=" << beta_max << " gamma=" << g;
      prev = b;
    }
  }
}

TEST(BetaWeightPropertyTest, ClipsExactlyAtPaperThresholds) {
  Rng rng(456);
  for (int trial = 0; trial < 50; ++trial) {
    double beta_max = rng.Uniform(0.5, 16.0);
    // The thresholds are exactly the paper's closed forms.
    double gamma_min = 50.0 * (1.0 - std::tanh(beta_max / 4.0));
    double gamma_max = 50.0 * (1.0 + std::tanh(beta_max / 4.0));
    EXPECT_DOUBLE_EQ(BetaGammaMin(beta_max), gamma_min);
    EXPECT_DOUBLE_EQ(BetaGammaMax(beta_max), gamma_max);

    // Saturation values: beta_max at/below gamma_min, 0 at/above gamma_max.
    EXPECT_NEAR(BetaWeight(gamma_min, beta_max), beta_max, 1e-9);
    EXPECT_NEAR(BetaWeight(gamma_max, beta_max), 0.0, 1e-9);

    // Clipping is EXACT: any gamma beyond a threshold yields the bitwise
    // same weight as the threshold itself.
    EXPECT_EQ(BetaWeight(gamma_min * 0.5, beta_max),
              BetaWeight(gamma_min, beta_max));
    EXPECT_EQ(BetaWeight(-3.0, beta_max), BetaWeight(gamma_min, beta_max));
    EXPECT_EQ(BetaWeight(gamma_max + 0.5 * (100.0 - gamma_max), beta_max),
              BetaWeight(gamma_max, beta_max));
    EXPECT_EQ(BetaWeight(250.0, beta_max), BetaWeight(gamma_max, beta_max));
  }
}

TEST(BetaWeightPropertyTest, RangeIsZeroToBetaMax) {
  Rng rng(789);
  for (int trial = 0; trial < 200; ++trial) {
    double beta_max = rng.Uniform(0.1, 20.0);
    double gamma = rng.Uniform(-10.0, 110.0);
    double b = BetaWeight(gamma, beta_max);
    EXPECT_GE(b, -1e-9) << "beta_max=" << beta_max << " gamma=" << gamma;
    EXPECT_LE(b, beta_max + 1e-9)
        << "beta_max=" << beta_max << " gamma=" << gamma;
  }
}

TEST(ScoreOutcomePropertyTest, ScoreEqualsMeanWhenAlphaIsZero) {
  // Equation 3 degenerates to s = mu at alpha = 0 for every subset size,
  // spread and beta_max.
  Rng rng(1011);
  for (int trial = 0; trial < 100; ++trial) {
    CvOutcome cv;
    cv.mean = rng.Uniform(-1.0, 1.0);
    cv.stddev = rng.Uniform(0.0, 0.5);
    ScoringOptions opts;
    opts.use_variance = true;
    opts.alpha = 0.0;
    opts.beta_max = rng.Uniform(0.1, 20.0);
    double gamma = rng.Uniform(0.0, 100.0);
    EXPECT_DOUBLE_EQ(ScoreOutcome(cv, gamma, opts), cv.mean)
        << "trial " << trial;
  }
}

TEST(ScoreOutcomeTest, VanillaIsMeanOnly) {
  CvOutcome cv;
  cv.mean = 0.8;
  cv.stddev = 0.1;
  ScoringOptions opts;
  opts.use_variance = false;
  EXPECT_DOUBLE_EQ(ScoreOutcome(cv, 10.0, opts), 0.8);
}

TEST(ScoreOutcomeTest, Equation3AddsWeightedVariance) {
  CvOutcome cv;
  cv.mean = 0.8;
  cv.stddev = 0.1;
  ScoringOptions opts;
  opts.use_variance = true;
  opts.alpha = 0.1;
  opts.beta_max = 10.0;
  double expected = 0.8 + 0.1 * BetaWeight(10.0, 10.0) * 0.1;
  EXPECT_NEAR(ScoreOutcome(cv, 10.0, opts), expected, 1e-12);
}

TEST(ScoreOutcomeTest, VarianceMattersMoreAtSmallSubsets) {
  CvOutcome cv;
  cv.mean = 0.8;
  cv.stddev = 0.1;
  ScoringOptions opts;
  opts.use_variance = true;
  double small = ScoreOutcome(cv, 5.0, opts);
  double large = ScoreOutcome(cv, 95.0, opts);
  EXPECT_GT(small, large);
  // At ~full budget the bonus vanishes: score == mean.
  EXPECT_NEAR(ScoreOutcome(cv, 100.0, opts), 0.8, 1e-9);
}

TEST(ScoreOutcomeTest, AlphaBetaMaxNormalization) {
  // With beta_max = 1/alpha the combined weight spans [0, 1], so the bonus
  // never exceeds one stddev.
  CvOutcome cv;
  cv.mean = 0.0;
  cv.stddev = 1.0;
  ScoringOptions opts;
  opts.use_variance = true;
  opts.alpha = 0.1;
  opts.beta_max = 10.0;
  EXPECT_LE(ScoreOutcome(cv, 0.0, opts), 1.0 + 1e-12);
  EXPECT_NEAR(ScoreOutcome(cv, 0.0, opts), 1.0, 1e-9);
}

TEST(ScoringOptionsTest, ValidateRejectsNonFiniteAndOutOfRangeWeights) {
  EXPECT_TRUE(ScoringOptions().Validate().ok());
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double alpha : {-0.5, kNan, kInf}) {
    ScoringOptions opts;
    opts.alpha = alpha;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << alpha;
  }
  for (double beta_max : {-3.0, 0.0, kNan, kInf}) {
    ScoringOptions opts;
    opts.beta_max = beta_max;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument)
        << beta_max;
  }
  ScoringOptions zero_alpha;
  zero_alpha.alpha = 0.0;  // The mean-only ablation.
  EXPECT_TRUE(zero_alpha.Validate().ok());
}

}  // namespace
}  // namespace bhpo
