// Probe-set construction (§4).
//
// A probe P^V_s is "the first V bytes of the data set, reshaped to unit
// file size s"; P^V_orig keeps the original segmentation.  A probe set
// varies the unit dimension at fixed volume: the original probe, the
// packed probe at s0, and derived probes at multiples of s0 up to the
// whole volume.  The measurement layer runs an application over each
// spec and reports mean/stddev over repetitions, which is exactly the
// data behind Figs. 3-5 and 7.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "corpus/corpus.hpp"
#include "reshape/merge.hpp"

namespace reshape::pack {

/// One measurable input layout.
struct ProbeSpec {
  std::string label;
  Bytes volume{0};
  Bytes unit{0};
  std::uint64_t file_count = 0;
  bool original = false;
};

struct ProbeSet {
  Bytes volume{0};
  std::vector<ProbeSpec> probes;

  [[nodiscard]] const ProbeSpec& original() const;
};

/// Builds the §4 probe set over the first `volume` bytes of `source`:
/// P^V_orig plus P^V_{m*s0} for each multiple m (m=1 included implicitly).
/// s0 should exceed the largest file so every bin is a true merge.
[[nodiscard]] ProbeSet build_probe_set(const corpus::Corpus& source,
                                       Bytes volume, Bytes s0,
                                       std::span<const std::uint64_t> multiples);

}  // namespace reshape::pack
