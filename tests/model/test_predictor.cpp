#include "model/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace reshape::model {
namespace {

TEST(Predictor, PredictMatchesEquationThree) {
  const Predictor p = eq3_predictor();
  // A 1 MB run is ~86.8 s, the scale of Fig. 7.
  EXPECT_NEAR(p.predict(1_MB).value(), 86.83, 0.2);
  EXPECT_GT(p.r2(), 0.9999);
}

TEST(Predictor, MaxVolumeWithinSolvesInverse) {
  const Predictor p = eq3_predictor();
  // Solving Eq. (3) for D = 3600 gives x0 ~ 41.6 MB (the §5.2 step that
  // prescribes 27 instances for ~1.09 GB).
  const Bytes x0 = p.max_volume_within(Seconds(3600.0));
  EXPECT_NEAR(x0.as_double(), (3600.0 - 0.327) / 0.865e-4, 1e4);
  // ceil(1.09 GB / x0) = 27 instances, as the paper reports.
  const double v = 1.09e9;
  EXPECT_EQ(std::ceil(v / x0.as_double()), 27.0);
}

TEST(Predictor, ImpossibleDeadlineYieldsZeroVolume) {
  const Predictor p = eq3_predictor();
  EXPECT_EQ(p.max_volume_within(Seconds(0.1)).count(), 0u);
}

TEST(RelativeResiduals, ZeroForPerfectFit) {
  const Predictor p = eq3_predictor();
  std::vector<double> xs, ys;
  for (double v = 1e5; v < 1e6; v += 2e5) {
    xs.push_back(v);
    ys.push_back(p.affine().predict(v));
  }
  const RelativeResiduals r = relative_residuals(p, xs, ys);
  EXPECT_NEAR(r.mean, 0.0, 1e-12);
  EXPECT_NEAR(r.stddev, 0.0, 1e-12);
  EXPECT_EQ(r.count, xs.size());
}

TEST(RelativeResiduals, CapturesSystematicUnderestimate) {
  const Predictor p = eq3_predictor();
  std::vector<double> xs, ys;
  for (double v = 1e5; v < 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(p.affine().predict(v) * 1.3);  // 30% slower than modelled
  }
  const RelativeResiduals r = relative_residuals(p, xs, ys);
  EXPECT_NEAR(r.mean, 0.3, 1e-9);
}

TEST(UpperTailZ, MatchesStandardQuantiles) {
  // The paper: P(Z > z) <= 0.1 gives z = 1.29 (1.2816 exactly).
  EXPECT_NEAR(upper_tail_z(0.10), 1.2816, 2e-3);
  EXPECT_NEAR(upper_tail_z(0.05), 1.6449, 2e-3);
  EXPECT_NEAR(upper_tail_z(0.5), 0.0, 1e-9);
  EXPECT_NEAR(upper_tail_z(0.01), 2.3263, 2e-3);
  EXPECT_THROW((void)upper_tail_z(0.0), Error);
  EXPECT_THROW((void)upper_tail_z(1.0), Error);
}

TEST(AdjustmentFactor, MatchesPaperFormula) {
  // §5.2: a = 1.29 sigma + mu; their residuals gave a = 1.525.
  RelativeResiduals r;
  r.mean = 0.0;
  r.stddev = 1.525 / 1.2816;
  EXPECT_NEAR(adjustment_factor(r, 0.10), 1.525, 5e-3);
}

TEST(AdjustedDeadline, MatchesPaperNumbers) {
  // D = 3600 -> D1 = 3600 / (1 + 1.525) ~= 1425?  No: the paper reports
  // 3124 for D=3600, implying a ~= 0.152 for that fit — but its printed
  // a = 1.525 and D1 = 3124 are mutually inconsistent; 3600/(1+0.1525) =
  // 3123.6 matches D1, so we treat a = 0.1525 as the operative value.
  RelativeResiduals r;
  r.mean = 0.0;
  r.stddev = 0.1525 / 1.2816;
  EXPECT_NEAR(adjusted_deadline(Seconds(3600.0), r, 0.10).value(), 3123.6,
              2.0);
  EXPECT_NEAR(adjusted_deadline(Seconds(7200.0), r, 0.10).value(), 6247.2,
              4.0);
}

TEST(AdjustedDeadline, DegenerateAdjustmentThrows) {
  RelativeResiduals r;
  r.mean = -2.0;  // would flip the deadline sign
  r.stddev = 0.0;
  EXPECT_THROW((void)adjusted_deadline(Seconds(3600.0), r, 0.10), Error);
}

// --- ThroughputBank (the elastic controller's observed-rate refit) ---------

TEST(ThroughputBank, KeepsThePriorBelowMinimumEvidence) {
  const Predictor prior = eq3_predictor();
  ThroughputBank bank;
  bank.observe(1_MB, Seconds(90.0));
  bank.observe(2_MB, Seconds(180.0));
  EXPECT_EQ(bank.count(), 2u);
  ASSERT_LT(bank.count(), ThroughputBank::kMinObservations);
  const Predictor fitted = bank.fitted(prior);
  EXPECT_DOUBLE_EQ(fitted.affine().slope, prior.affine().slope);
  EXPECT_DOUBLE_EQ(fitted.affine().intercept, prior.affine().intercept);
}

TEST(ThroughputBank, IgnoresDegenerateObservations) {
  ThroughputBank bank;
  bank.observe(Bytes(0), Seconds(10.0));
  bank.observe(1_MB, Seconds(0.0));
  bank.observe(1_MB, Seconds(-5.0));
  EXPECT_EQ(bank.count(), 0u);
  EXPECT_DOUBLE_EQ(bank.mean_throughput().bytes_per_second(), 0.0);
}

TEST(ThroughputBank, MeanThroughputPoolsBytesOverSeconds) {
  ThroughputBank bank;
  bank.observe(Bytes(10'000'000), Seconds(10.0));
  bank.observe(Bytes(30'000'000), Seconds(10.0));
  // 40 MB over 20 s = 2 MB/s, pooled — not the mean of per-attempt rates.
  EXPECT_DOUBLE_EQ(bank.mean_throughput().bytes_per_second(), 2.0e6);
}

TEST(ThroughputBank, RefitsTheAffineModelFromSpreadObservations) {
  const Predictor prior = eq3_predictor();
  ThroughputBank bank;
  // A world twice as slow as the prior: t = 10 + 2e-4 * v.
  for (double v = 1e5; v <= 1e6; v += 1e5) {
    bank.observe(Bytes(static_cast<std::uint64_t>(v)),
                 Seconds(10.0 + 2.0e-4 * v));
  }
  const Predictor fitted = bank.fitted(prior);
  EXPECT_NEAR(fitted.affine().slope, 2.0e-4, 1e-8);
  EXPECT_NEAR(fitted.affine().intercept, 10.0, 1e-6);
  // The refit steers capacity planning: half the volume fits the hour.
  EXPECT_NEAR(fitted.max_volume_within(Seconds(3600.0)).as_double(),
              (3600.0 - 10.0) / 2.0e-4, 1e3);
}

TEST(ThroughputBank, NoVolumeSpreadKeepsPriorInterceptAndPoolsTheRate) {
  const Predictor prior(AffineFit{20.0, 1.0e-4, {}});
  ThroughputBank bank;
  // Same-size attempts (the uniform-plan common case): OLS would be
  // degenerate, so only the per-byte rate is re-derived.
  for (int i = 0; i < 4; ++i) {
    bank.observe(Bytes(1'000'000), Seconds(20.0 + 300.0));  // 3e-4 s/byte
  }
  const Predictor fitted = bank.fitted(prior);
  EXPECT_DOUBLE_EQ(fitted.affine().intercept, 20.0);
  EXPECT_NEAR(fitted.affine().slope, 3.0e-4, 1e-10);
}

}  // namespace
}  // namespace reshape::model
