#include "model/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace reshape::model {
namespace {

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    xs.push_back(lo * std::pow(hi / lo, t));
  }
  return xs;
}

TEST(AffineFit, RecoversExactCoefficients) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(-0.974 + 1.324 * x);
  const AffineFit fit = fit_affine(xs, ys);
  EXPECT_NEAR(fit.intercept, -0.974, 1e-9);
  EXPECT_NEAR(fit.slope, 1.324, 1e-9);
  EXPECT_NEAR(fit.quality.r2, 1.0, 1e-12);
}

TEST(AffineFit, PaperEquationOneScale) {
  // Eq. (1): f(x) = -0.974 + 1.324e-8 x over byte-scale volumes.
  std::vector<double> xs, ys;
  Rng rng(1);
  for (double v = 1e8; v <= 5e9; v *= 1.5) {
    xs.push_back(v);
    ys.push_back(-0.974 + 1.324e-8 * v + rng.normal(0.0, 0.2));
  }
  const AffineFit fit = fit_affine(xs, ys);
  EXPECT_NEAR(fit.slope, 1.324e-8, 2e-10);
  EXPECT_GT(fit.quality.r2, 0.999);
  // Prediction for 100 GB is ~1323 s, the paper's Fig. 6 scale.
  EXPECT_NEAR(fit.predict(1e11), 1323.0, 25.0);
}

TEST(AffineFit, InverseRoundTrips) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{3.0, 5.0, 7.0};
  const AffineFit fit = fit_affine(xs, ys);
  EXPECT_NEAR(fit.inverse(fit.predict(2.5)), 2.5, 1e-9);
}

TEST(AffineFit, FlatModelHasNoInverse) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{4.0, 4.0, 4.0};
  const AffineFit fit = fit_affine(xs, ys);
  EXPECT_THROW((void)fit.inverse(4.0), Error);
}

TEST(AffineFit, ResidualsAreOriginalSpace) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0, 3.0};
  const AffineFit fit = fit_affine(xs, ys);
  ASSERT_EQ(fit.quality.residuals.size(), 2u);
  EXPECT_NEAR(fit.quality.residuals[0], 0.0, 1e-12);
}

TEST(AffineFit, StrRendersEquation) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{3.0, 5.0, 7.0};
  const std::string s = fit_affine(xs, ys).str();
  EXPECT_NE(s.find("f(x) ="), std::string::npos);
  EXPECT_NE(s.find("R^2"), std::string::npos);
}

TEST(PowerFit, RecoversExponent) {
  const std::vector<double> xs = logspace(10.0, 1e6, 15);
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * std::pow(x, 0.7));
  const PowerFit fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.a, 3.0, 1e-6);
  EXPECT_NEAR(fit.b, 0.7, 1e-9);
  EXPECT_NEAR(fit.quality.r2, 1.0, 1e-9);
}

TEST(PowerFit, LogSpaceWeightingHandlesWideRanges) {
  // Non-equidistant points spanning six decades — the reason the paper
  // regresses in log space.
  const std::vector<double> xs = logspace(1.0, 1e6, 20);
  std::vector<double> ys;
  Rng rng(2);
  for (const double x : xs) {
    ys.push_back(2.0 * std::pow(x, 1.1) *
                 std::exp(rng.normal(0.0, 0.01)));
  }
  const PowerFit fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.b, 1.1, 0.02);
}

TEST(Fits, InputValidation) {
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW((void)fit_affine(one, one), Error);
  EXPECT_THROW((void)fit_affine(two, one), Error);
  const std::vector<double> with_zero{0.0, 1.0};
  EXPECT_THROW((void)fit_power(with_zero, two), Error);
  const std::vector<double> same_x{2.0, 2.0};
  EXPECT_THROW((void)fit_affine(same_x, two), Error);
}

}  // namespace
}  // namespace reshape::model
