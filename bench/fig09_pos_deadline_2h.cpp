// Figure 9 — POS tagging schedules for a two-hour deadline.
//
//   (a) model (3), uniform bins: the deadline is met loosely with 14
//       instances — suggesting fewer might do.
//   (b) model (4) from random sampling: 11 instances, but the deadline
//       is missed.
//   (c) adjusted deadline D1 = D/(1+a) (~6247 s in the paper): no more
//       misses, and cheaper in instance-hours than plan (a).

#include "pos_schedule.hpp"

using namespace reshape;
using namespace reshape::bench;

int main() {
  banner("Figure 9", "POS deadline schedules, D = 2 h");
  const PosExperiment exp = build_pos_experiment(2024);
  std::printf("Eq. (3) analogue: %s\n", exp.eq3.affine().str().c_str());
  std::printf("Eq. (4) analogue: %s\n", exp.eq4.affine().str().c_str());
  const Seconds deadline(7200.0);
  std::printf("adjusted deadline: %s\n\n",
              model::adjusted_deadline(deadline, exp.residuals,
                                      provision::kMissProbability)
                  .str()
                  .c_str());

  run_panel("(a)", exp, exp.eq3, deadline,
            provision::PackingStrategy::kUniform, 991);
  run_panel("(b)", exp, exp.eq4, deadline,
            provision::PackingStrategy::kUniform, 991);
  run_panel("(c)", exp, exp.eq4, deadline,
            provision::PackingStrategy::kAdjusted, 991);
  return 0;
}
