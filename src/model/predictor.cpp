#include "model/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace reshape::model {

Predictor Predictor::fit(std::span<const double> volumes_bytes,
                         std::span<const double> times_seconds) {
  return Predictor(fit_affine(volumes_bytes, times_seconds));
}

Seconds Predictor::predict(Bytes volume) const {
  return Seconds(fit_.predict(volume.as_double()));
}

Bytes Predictor::max_volume_within(Seconds deadline) const {
  const double x = fit_.inverse(deadline.value());
  if (x <= 0.0) return Bytes(0);
  return Bytes(static_cast<std::uint64_t>(x));
}

Predictor eq3_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return Predictor::fit(xs, ys);
}

void ThroughputBank::observe(Bytes volume, Seconds elapsed) {
  if (volume.count() == 0 || elapsed.value() <= 0.0) return;
  volumes_.push_back(volume.as_double());
  times_.push_back(elapsed.value());
}

Rate ThroughputBank::mean_throughput() const {
  double bytes = 0.0;
  double seconds = 0.0;
  for (std::size_t i = 0; i < volumes_.size(); ++i) {
    bytes += volumes_[i];
    seconds += times_[i];
  }
  if (seconds <= 0.0) return Rate(0.0);
  return Rate(bytes / seconds);
}

Predictor ThroughputBank::fitted(const Predictor& prior) const {
  if (volumes_.size() < kMinObservations) return prior;
  const auto [lo, hi] = std::minmax_element(volumes_.begin(), volumes_.end());
  // With no volume spread OLS can't separate intercept from slope; keep
  // the prior's fixed cost and re-derive only the per-byte rate from the
  // pooled observations (subtracting the prior's intercept per attempt).
  if (*hi - *lo < 0.05 * *hi) {
    double bytes = 0.0;
    double seconds = 0.0;
    for (std::size_t i = 0; i < volumes_.size(); ++i) {
      bytes += volumes_[i];
      seconds += std::max(0.0, times_[i] - prior.affine().intercept);
    }
    if (bytes <= 0.0 || seconds <= 0.0) return prior;
    AffineFit fit = prior.affine();
    fit.slope = seconds / bytes;
    if (fit.slope <= 0.0) return prior;
    return Predictor(fit);
  }
  Predictor refit = Predictor::fit(volumes_, times_);
  if (refit.affine().slope <= 0.0) return prior;
  // A negative fitted intercept would let max_volume_within extrapolate
  // into free work; clamp to zero (pure rate model) instead.
  if (refit.affine().intercept < 0.0) {
    AffineFit fit = refit.affine();
    fit.intercept = 0.0;
    refit = Predictor(fit);
  }
  return refit;
}

RelativeResiduals relative_residuals(const Predictor& predictor,
                                     std::span<const double> volumes_bytes,
                                     std::span<const double> times_seconds) {
  RESHAPE_REQUIRE(volumes_bytes.size() == times_seconds.size(),
                  "volume/time size mismatch");
  RunningStats stats;
  for (std::size_t i = 0; i < volumes_bytes.size(); ++i) {
    const double f = predictor.affine().predict(volumes_bytes[i]);
    RESHAPE_REQUIRE(f > 0.0, "prediction must be positive for residuals");
    stats.add((times_seconds[i] - f) / f);
  }
  return RelativeResiduals{stats.mean(), stats.stddev(), stats.count()};
}

double upper_tail_z(double p) {
  RESHAPE_REQUIRE(p > 0.0 && p < 1.0, "tail probability must be in (0, 1)");
  // Acklam's inverse-normal-CDF approximation for the lower quantile of
  // probability q = 1 - p; z is then that quantile.
  const double q = 1.0 - p;
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (q < p_low) {
    const double r = std::sqrt(-2.0 * std::log(q));
    x = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) /
        ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0);
  } else if (q <= 1.0 - p_low) {
    const double r = q - 0.5;
    const double s = r * r;
    x = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) *
        r /
        (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0);
  } else {
    const double r = std::sqrt(-2.0 * std::log(1.0 - q));
    x = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) /
        ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0);
  }
  return x;
}

double adjustment_factor(const RelativeResiduals& residuals,
                         double miss_probability) {
  return upper_tail_z(miss_probability) * residuals.stddev + residuals.mean;
}

Seconds adjusted_deadline(Seconds deadline,
                          const RelativeResiduals& residuals,
                          double miss_probability) {
  const double a = adjustment_factor(residuals, miss_probability);
  RESHAPE_REQUIRE(a > -1.0, "adjustment factor would invert the deadline");
  return deadline / (1.0 + a);
}

}  // namespace reshape::model
