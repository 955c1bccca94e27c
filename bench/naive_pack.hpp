// Textbook O(n·k) scans for the fixed-bin-count packers: the equivalence
// oracles that pack_into_k and uniform_bins must match bit for bit.
// micro_binpack checks its rows against them before timing, and
// tests/reshape/test_binpack_equivalence.cpp fuzzes against them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "corpus/corpus.hpp"
#include "reshape/binpack.hpp"

namespace reshape::bench {

namespace detail {

inline bool less_used(const pack::Bin& a, const pack::Bin& b) {
  return a.used < b.used;
}

inline void place(pack::Packing& packing,
                  std::vector<pack::Bin>::iterator target, Bytes size) {
  target->used += size;
  packing.bin_of.push_back(
      static_cast<std::uint32_t>(target - packing.bins.begin()));
}

}  // namespace detail

/// First-fit into k bins of `capacity`; a file that fits nowhere spills
/// into the least-loaded bin (lowest index among ties).
inline pack::Packing naive_pack_into_k(
    std::span<const corpus::VirtualFile> files, std::size_t k,
    Bytes capacity) {
  pack::Packing packing;
  packing.bins.assign(k, pack::Bin{capacity, Bytes(0)});
  auto& bins = packing.bins;
  for (const corpus::VirtualFile& file : files) {
    auto target = std::find_if(
        bins.begin(), bins.end(),
        [&file](const pack::Bin& bin) { return bin.fits(file.size); });
    if (target == bins.end()) {
      target = std::min_element(bins.begin(), bins.end(), detail::less_used);
    }
    detail::place(packing, target, file.size);
  }
  return packing;
}

/// Each file to the least-loaded of k bins (lowest index among ties).
inline pack::Packing naive_uniform_bins(
    std::span<const corpus::VirtualFile> files, std::size_t k) {
  Bytes total{0};
  for (const corpus::VirtualFile& file : files) total += file.size;
  pack::Packing packing;
  packing.bins.assign(k, pack::Bin{total, Bytes(0)});
  for (const corpus::VirtualFile& file : files) {
    detail::place(packing,
                  std::min_element(packing.bins.begin(), packing.bins.end(),
                                   detail::less_used),
                  file.size);
  }
  return packing;
}

}  // namespace reshape::bench
