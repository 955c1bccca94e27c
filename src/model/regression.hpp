// Regression machinery for the empirical performance model (§5).
//
// The paper fits execution time as a function of data volume.  Its
// reported fits — Eqs. (1)-(4) — are affine, y = c0 + c1·x: `fit_affine`
// is the planner's workhorse (Predictor), and `fit_affine_weighted` with
// `volume_weights` is §7's proposed refinement (Fig. 6).  The paper also
// works in logarithmic space because "our data points are not nearly
// equidistant"; `fit_power` fits the power law y = a·x^b there.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace reshape::model {

/// Goodness of fit: 1 - SS_res/SS_tot over the fitted space.
struct FitQuality {
  double r2 = 0.0;
  std::vector<double> residuals;  // y_i - f(x_i), original space
};

/// y = intercept + slope·x, ordinary least squares.
struct AffineFit {
  double intercept = 0.0;
  double slope = 0.0;
  FitQuality quality;

  [[nodiscard]] double predict(double x) const { return intercept + slope * x; }
  /// Solves f(x) = y.
  [[nodiscard]] double inverse(double y) const;
  [[nodiscard]] std::string str() const;
};

/// y = a·x^b, fitted in log space.
struct PowerFit {
  double a = 0.0;
  double b = 0.0;
  FitQuality quality;
  [[nodiscard]] double predict(double x) const;
};

[[nodiscard]] AffineFit fit_affine(std::span<const double> xs,
                                   std::span<const double> ys);

/// Weighted least squares: §7's proposed improvement — "demanding closer
/// fits in the large data volume range and allowing for looser fits in
/// the small data volume range", where measurements are noisy.
[[nodiscard]] AffineFit fit_affine_weighted(std::span<const double> xs,
                                            std::span<const double> ys,
                                            std::span<const double> weights);

/// Convenience weighting for the above: weight proportional to x (large
/// volumes count more), normalized to mean 1.
[[nodiscard]] std::vector<double> volume_weights(std::span<const double> xs);

/// y = a·x^b by least squares on (ln x, ln y).
[[nodiscard]] PowerFit fit_power(std::span<const double> xs,
                                 std::span<const double> ys);

}  // namespace reshape::model
