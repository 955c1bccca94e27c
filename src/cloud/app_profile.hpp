// Application cost profiles.
//
// The paper treats applications as black boxes characterized empirically
// (§4).  A profile captures the cost structure that the experiments expose:
//
//  * per-run setup and its instability (unstable setup overheads dominate
//    very small probes — Fig. 3);
//  * per-input-file overhead (open/close/metadata/seek — the reason small
//    files hurt grep, Figs. 4-6);
//  * per-byte CPU demand on a reference-speed instance;
//  * per-byte I/O demand (bytes actually read per input byte);
//  * memory pressure growing with unit file size (the reason merging does
//    NOT help the memory-bound POS tagger — Fig. 7).
//
// Profiles are constants taken from the paper (grep_profile, pos_profile),
// so every figure is independent of the host it runs on.
#pragma once

#include <string>

#include "common/units.hpp"

namespace reshape::cloud {

/// Penalty applied to per-byte CPU cost once unit file size exceeds the
/// comfortable working-set size: +penalty_per_doubling per factor-of-two.
struct MemoryPressure {
  Bytes comfortable{0};  // 0 disables the penalty
  double penalty_per_doubling = 0.0;

  /// Multiplier >= 1.0 for documents of size `unit`.
  [[nodiscard]] double multiplier(Bytes unit) const;
};

struct AppCostProfile {
  std::string name;
  /// Stable per-run setup (e.g. tagger model load / JVM start).
  Seconds setup{0.0};
  /// Stddev of the unstable part of setup; dominates tiny probes.
  Seconds setup_jitter{0.0};
  /// Overhead per input file (open/close/metadata/seek).
  Seconds per_file_overhead{0.0};
  /// CPU time per input byte at reference speed (quality cpu_factor 1.0).
  double cpu_seconds_per_byte = 0.0;
  /// Bytes moved through storage per input byte (1.0 for a full scan).
  double io_bytes_per_input_byte = 1.0;
  MemoryPressure memory;
};

/// Profile for GNU-grep-style full-traversal scanning (§5.1): I/O bound,
/// millisecond-scale per-file overhead, negligible memory pressure.
[[nodiscard]] AppCostProfile grep_profile();

/// Profile for the Stanford-POS-style tagger (§5.2): CPU/memory bound
/// (~0.865e-4 s/byte, the slope of the paper's Eq. (3)), JVM-scale setup,
/// tiny per-file overhead, and pressure beyond ~64 kB documents.
[[nodiscard]] AppCostProfile pos_profile();

}  // namespace reshape::cloud
