#include "reshape/probe.hpp"

#include "common/error.hpp"

namespace reshape::pack {

const ProbeSpec& ProbeSet::original() const {
  for (const ProbeSpec& p : probes) {
    if (p.original) return p;
  }
  throw Error("probe set has no original-layout probe");
}

ProbeSet build_probe_set(const corpus::Corpus& source, Bytes volume, Bytes s0,
                         std::span<const std::uint64_t> multiples) {
  const corpus::Corpus subset = source.take_volume(volume);
  RESHAPE_REQUIRE(s0 >= subset.max_file_size(),
                  "s0 must be at least the largest file in the probe volume");
  RESHAPE_REQUIRE(!subset.empty(), "probe volume selected no files");
  ProbeSet set;
  set.volume = subset.total_volume();

  ProbeSpec original;
  original.label = "orig";
  original.volume = set.volume;
  original.unit = subset.mean_file_size();
  original.file_count = subset.file_count();
  original.original = true;
  set.probes.push_back(original);

  const MergedCorpus base = merge_to_unit(subset, s0);
  ProbeSpec s0_probe;
  s0_probe.label = s0.str();
  s0_probe.volume = set.volume;
  s0_probe.unit = s0;
  s0_probe.file_count = base.block_count();
  set.probes.push_back(s0_probe);

  for (const std::uint64_t m : multiples) {
    RESHAPE_REQUIRE(m >= 2, "multiples must be >= 2 (1 is the s0 probe)");
    const MergedCorpus derived = derive_multiple(base, m);
    ProbeSpec spec;
    spec.unit = derived.unit;
    spec.label = spec.unit.str();
    spec.volume = set.volume;
    spec.file_count = derived.block_count();
    set.probes.push_back(spec);
  }
  return set;
}

}  // namespace reshape::pack
