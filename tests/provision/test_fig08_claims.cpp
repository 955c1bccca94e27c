// Fig. 8's claims, asserted rather than pinned as golden bytes: at
// D = 1 h on the paper's geometry, fixed-k first-fit in original order
// (panel a) leaves instances late, while the uniform balance (panel b)
// meets the deadline on every instance at no higher cost; and the
// sampled Eq. (4) rotates the head-probe Eq. (3).  Same experiment and
// fleet seed as bench/fig08_pos_deadline_1h.

#include <gtest/gtest.h>

#include "pos_schedule.hpp"

namespace reshape::bench {
namespace {

TEST(Fig08Claims, UniformBinsMissNoneWhereFirstFitMisses) {
  const PosExperiment exp = build_pos_experiment(2024);
  const Seconds deadline(3600.0);
  const provision::ExecutionReport first_fit =
      run_panel("(a)", exp, exp.eq3, deadline,
                provision::PackingStrategy::kFirstFit, 881,
                /*print_bars=*/false);
  const provision::ExecutionReport uniform =
      run_panel("(b)", exp, exp.eq3, deadline,
                provision::PackingStrategy::kUniform, 881,
                /*print_bars=*/false);
  EXPECT_EQ(first_fit.instance_count(), 27u);
  EXPECT_EQ(uniform.instance_count(), 27u);
  EXPECT_GE(first_fit.missed, 1u);
  EXPECT_EQ(uniform.missed, 0u);
  EXPECT_LE(uniform.cost, first_fit.cost);
}

// Eq. (4) refits Eq. (3) with random samples and rotates it: a lower
// slope and a higher intercept (the golden prints 6.937 + 8.609e-05*x
// against 3.01 + 9.682e-05*x).
TEST(Fig08Claims, Eq4RotatesEq3LowerSlopeHigherIntercept) {
  const PosExperiment exp = build_pos_experiment(2024);
  EXPECT_LT(exp.eq4.affine().slope, exp.eq3.affine().slope);
  EXPECT_GT(exp.eq4.affine().intercept, exp.eq3.affine().intercept);
}

}  // namespace
}  // namespace reshape::bench
