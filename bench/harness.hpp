// Shared timing and gate helpers for the micro_* perf trackers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

namespace reshape::bench {

/// Best wall time of `reps` runs of fn() (best-of damps scheduler noise).
template <typename F>
double time_best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// The recorded-ratio smoke gate: `ratio` must reach max(floor, 75% of
/// the recorded ratio).  Below it, prints the SMOKE FAIL line and
/// returns false.
inline bool ratio_gate(const std::string& name, double ratio,
                       double recorded, double floor) {
  const double threshold = std::max(floor, recorded * 0.75);
  if (ratio >= threshold) return true;
  std::fprintf(stderr,
               "SMOKE FAIL: %s ratio %.2fx below threshold %.2fx "
               "(recorded %.2fx)\n",
               name.c_str(), ratio, threshold, recorded);
  return false;
}

}  // namespace reshape::bench
