#include "model/regression.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace reshape::model {

namespace {

void check_input(std::span<const double> xs, std::span<const double> ys,
                 std::size_t min_points) {
  RESHAPE_REQUIRE(xs.size() == ys.size(), "x/y size mismatch");
  RESHAPE_REQUIRE(xs.size() >= min_points, "too few points for this fit");
}

void require_positive(std::span<const double> vs, const char* what) {
  for (const double v : vs) {
    RESHAPE_REQUIRE(v > 0.0, std::string("log-space fit requires positive ") +
                                 what);
  }
}

/// OLS on (us, vs): returns {intercept, slope}.
std::pair<double, double> ols(std::span<const double> us,
                              std::span<const double> vs) {
  const auto n = static_cast<double>(us.size());
  double su = 0.0, sv = 0.0, suu = 0.0, suv = 0.0;
  for (std::size_t i = 0; i < us.size(); ++i) {
    su += us[i];
    sv += vs[i];
    suu += us[i] * us[i];
    suv += us[i] * vs[i];
  }
  const double denom = n * suu - su * su;
  RESHAPE_REQUIRE(std::abs(denom) > 1e-30, "degenerate x values for OLS");
  const double slope = (n * suv - su * sv) / denom;
  const double intercept = (sv - slope * su) / n;
  return {intercept, slope};
}

/// Original-space residuals and R² for any predictor.
template <typename Predict>
FitQuality quality_of(std::span<const double> xs, std::span<const double> ys,
                      Predict&& f) {
  FitQuality q;
  double mean = 0.0;
  for (const double y : ys) mean += y;
  mean /= static_cast<double>(ys.size());
  double ss_res = 0.0, ss_tot = 0.0;
  q.residuals.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - f(xs[i]);
    q.residuals.push_back(r);
    ss_res += r * r;
    ss_tot += (ys[i] - mean) * (ys[i] - mean);
  }
  q.r2 = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return q;
}

std::vector<double> log_of(std::span<const double> vs) {
  std::vector<double> out;
  out.reserve(vs.size());
  for (const double v : vs) out.push_back(std::log(v));
  return out;
}

}  // namespace

double AffineFit::inverse(double y) const {
  RESHAPE_REQUIRE(std::abs(slope) > 1e-30, "flat model has no inverse");
  return (y - intercept) / slope;
}

std::string AffineFit::str() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "f(x) = %.4g + %.4g * x  (R^2 = %.4f)",
                intercept, slope, quality.r2);
  return buf;
}

double PowerFit::predict(double x) const { return a * std::pow(x, b); }

AffineFit fit_affine(std::span<const double> xs, std::span<const double> ys) {
  check_input(xs, ys, 2);
  AffineFit fit;
  const auto [c0, c1] = ols(xs, ys);
  fit.intercept = c0;
  fit.slope = c1;
  fit.quality = quality_of(xs, ys, [&](double x) { return fit.predict(x); });
  return fit;
}

AffineFit fit_affine_weighted(std::span<const double> xs,
                              std::span<const double> ys,
                              std::span<const double> weights) {
  check_input(xs, ys, 2);
  RESHAPE_REQUIRE(weights.size() == xs.size(), "weight count mismatch");
  double sw = 0.0, swx = 0.0, swy = 0.0, swxx = 0.0, swxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    RESHAPE_REQUIRE(weights[i] >= 0.0, "weights must be nonnegative");
    sw += weights[i];
    swx += weights[i] * xs[i];
    swy += weights[i] * ys[i];
    swxx += weights[i] * xs[i] * xs[i];
    swxy += weights[i] * xs[i] * ys[i];
  }
  RESHAPE_REQUIRE(sw > 0.0, "all weights are zero");
  const double denom = sw * swxx - swx * swx;
  RESHAPE_REQUIRE(std::abs(denom) > 1e-30, "degenerate x values for WLS");
  AffineFit fit;
  fit.slope = (sw * swxy - swx * swy) / denom;
  fit.intercept = (swy - fit.slope * swx) / sw;
  fit.quality = quality_of(xs, ys, [&](double x) { return fit.predict(x); });
  return fit;
}

std::vector<double> volume_weights(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) {
    RESHAPE_REQUIRE(x >= 0.0, "volumes must be nonnegative");
    sum += x;
  }
  RESHAPE_REQUIRE(sum > 0.0, "all volumes are zero");
  std::vector<double> w;
  w.reserve(xs.size());
  const double scale = static_cast<double>(xs.size()) / sum;
  for (const double x : xs) w.push_back(x * scale);
  return w;
}

PowerFit fit_power(std::span<const double> xs, std::span<const double> ys) {
  check_input(xs, ys, 2);
  require_positive(xs, "x");
  require_positive(ys, "y");
  const std::vector<double> lx = log_of(xs);
  const std::vector<double> ly = log_of(ys);
  const auto [c0, c1] = ols(lx, ly);
  PowerFit fit;
  fit.a = std::exp(c0);
  fit.b = c1;
  fit.quality = quality_of(xs, ys, [&](double x) { return fit.predict(x); });
  return fit;
}

}  // namespace reshape::model
