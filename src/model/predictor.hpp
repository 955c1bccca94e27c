// The planner-facing performance predictor and the residual-quantile
// deadline adjustment of §5.2.
//
// A Predictor maps data volume to predicted execution time (and back).
// The adjustment assumes relative residuals (y - f(x)) / f(x) are normal;
// to keep the probability of exceeding deadline D below p, plan for the
// lowered deadline D / (1 + a) with a = z_p·σ + μ (the paper uses
// z = 1.29 for p = 10%, a = 1.525 on its residuals).
#pragma once

#include <span>

#include "common/units.hpp"
#include "model/regression.hpp"

namespace reshape::model {

/// Volume -> time predictor backed by an affine fit (the form of the
/// paper's Eqs. (1)-(4)).
class Predictor {
 public:
  Predictor() = default;
  explicit Predictor(AffineFit fit) : fit_(fit) {}

  /// Fits from (volume, time) observations.
  [[nodiscard]] static Predictor fit(std::span<const double> volumes_bytes,
                                     std::span<const double> times_seconds);

  [[nodiscard]] Seconds predict(Bytes volume) const;

  /// Largest volume processable within `deadline` (f^{-1}(D)); zero when
  /// even an empty input misses.
  [[nodiscard]] Bytes max_volume_within(Seconds deadline) const;

  [[nodiscard]] const AffineFit& affine() const { return fit_; }
  [[nodiscard]] double r2() const { return fit_.quality.r2; }

 private:
  AffineFit fit_;
};

/// The paper's POS model, Eq. (3): f(x) = 0.327 + 0.865e-4·x, x in bytes.
[[nodiscard]] Predictor eq3_predictor();

/// Online observation bank for epoch re-planning: the elastic controller
/// streams every completed attempt's (volume, elapsed) pair in, and each
/// epoch asks for a predictor refreshed with the campaign's own evidence
/// (C3O-style feedback: observed progress sharpens the model as the run
/// unfolds).  Until enough well-spread evidence has accumulated the
/// caller's prior predictor stands.
class ThroughputBank {
 public:
  /// The evidence floor: observations banked before a refit may replace
  /// the prior, for the elastic controller and the server's model store.
  static constexpr std::size_t kMinObservations = 3;

  /// Banks one completed attempt.  Non-positive volumes or times are
  /// ignored (a zero-byte recovery remainder carries no signal).
  void observe(Bytes volume, Seconds elapsed);

  [[nodiscard]] std::size_t count() const { return volumes_.size(); }

  /// The banked observations, in ingest order.  The planning server's
  /// model store replays these through a fresh bank in sorted order so a
  /// refit is a pure function of the observation multiset — and the
  /// concurrency tests read them back to prove nothing was torn or lost.
  [[nodiscard]] std::span<const double> volumes() const { return volumes_; }
  [[nodiscard]] std::span<const double> times() const { return times_; }

  /// Mean observed throughput over all banked attempts (bytes/s); zero
  /// rate when nothing was banked.
  [[nodiscard]] Rate mean_throughput() const;

  /// The refreshed predictor: an affine refit of the banked observations
  /// once at least kMinObservations with meaningful volume spread exist
  /// and the refit is sane (positive slope); otherwise `prior` is
  /// returned unchanged.  When the refit lacks spread (all attempts the
  /// same size), the slope falls back to the pooled per-byte rate around
  /// the prior's intercept, which still tracks fleet-wide slowdowns.
  [[nodiscard]] Predictor fitted(const Predictor& prior) const;

 private:
  std::vector<double> volumes_;
  std::vector<double> times_;
};

/// Statistics of relative residuals r_i = (y_i - f(x_i)) / f(x_i).
struct RelativeResiduals {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

/// Computes relative-residual stats from a fit's observations.
[[nodiscard]] RelativeResiduals relative_residuals(
    const Predictor& predictor, std::span<const double> volumes_bytes,
    std::span<const double> times_seconds);

/// Upper-tail standard-normal quantile z with P(Z > z) = p, via the
/// Acklam rational approximation (|error| < 1.15e-9).
[[nodiscard]] double upper_tail_z(double p);

/// The §5.2 adjustment factor a = z_p·σ + μ.
[[nodiscard]] double adjustment_factor(const RelativeResiduals& residuals,
                                       double miss_probability);

/// Lowered deadline D1 = D / (1 + a).
[[nodiscard]] Seconds adjusted_deadline(Seconds deadline,
                                        const RelativeResiduals& residuals,
                                        double miss_probability);

}  // namespace reshape::model
