// Figure 8 — POS tagging schedules for a one-hour deadline.
//
//   (a) model (3), first-fit bins in original order: early bins are full
//       to x0, the tail bin is light; several instances miss.
//   (b) model (3), uniform bins: same instance count and cost, the load
//       is level and the deadline is met far more often.
//   (c) model (4) from random sampling: a lower slope prescribes fewer
//       instances — and the deadline is missed.
//   (d) adjusted deadline D1 = D/(1+a): plan against 3124-ish seconds,
//       fewer misses at the price of extra instance-hours.

#include "pos_schedule.hpp"

using namespace reshape;
using namespace reshape::bench;

int main() {
  banner("Figure 8", "POS deadline schedules, D = 1 h");
  const PosExperiment exp = build_pos_experiment(2024);
  std::printf("Eq. (3) analogue: %s\n", exp.eq3.affine().str().c_str());
  std::printf("Eq. (4) analogue: %s\n", exp.eq4.affine().str().c_str());
  std::printf("relative residuals: mean %.3f, stddev %.3f -> a(10%%) = %.3f\n\n",
              exp.residuals.mean, exp.residuals.stddev,
              model::adjustment_factor(exp.residuals,
                                        provision::kMissProbability));

  const Seconds deadline(3600.0);
  run_panel("(a)", exp, exp.eq3, deadline,
            provision::PackingStrategy::kFirstFit, 881);
  run_panel("(b)", exp, exp.eq3, deadline,
            provision::PackingStrategy::kUniform, 881);
  run_panel("(c)", exp, exp.eq4, deadline,
            provision::PackingStrategy::kUniform, 881);
  run_panel("(d)", exp, exp.eq4, deadline,
            provision::PackingStrategy::kAdjusted, 881);
  return 0;
}
