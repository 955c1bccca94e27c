// Bin packing — the mechanism behind input reshaping.
//
// The paper merges small files into unit-sized blocks with the subset-sum
// first-fit heuristic (§1, §4, citing Vazirani): bins have capacity equal
// to the desired unit file size, and files are offered to the first bin
// with room.  Files are packed in their *original order*: §5.2 deliberately
// does not sort them by decreasing size, because that front-loads large
// files and the POS tagger degrades on them.  The deadline planner adds a
// fixed-bin-count first-fit (Fig. 8(a)) and a uniform balance (Fig. 8(b)).
// Every packer reads the caller's files in place and returns one Packing:
// the bins' sizes plus one bin index per file.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "corpus/corpus.hpp"

namespace reshape::pack {

/// One bin (a merged block / an instance's share).
struct Bin {
  Bytes capacity{0};
  Bytes used{0};

  [[nodiscard]] Bytes free() const { return capacity - used; }
  [[nodiscard]] bool fits(Bytes size) const { return used + size <= capacity; }
};

/// A packer's output.  `bin_of[i]` is the index in `bins` of the bin that
/// holds the i-th input file.
struct Packing {
  std::vector<Bin> bins;
  std::vector<std::uint32_t> bin_of;
};

/// Bin indices are 32-bit: a packer takes at most this many files (and
/// pack_into_k / uniform_bins at most this many bins).
inline constexpr std::size_t kMaxInputs =
    std::numeric_limits<std::uint32_t>::max();

/// Subset-sum first-fit: opens a new bin of `capacity` whenever no
/// existing bin fits.  Files larger than `capacity` get a dedicated
/// oversize bin whose capacity is their size (files are unsplittable,
/// §5).  Each placement is O(log b) via a tournament tree over bin
/// residuals; the packing is bit-for-bit identical to first_fit_reference.
[[nodiscard]] Packing first_fit(std::span<const corpus::VirtualFile> files,
                                Bytes capacity);

/// Textbook O(n·b) first-fit: scans every open bin per file.  Kept as the
/// equivalence oracle for the tree-based first_fit and as the baseline in
/// bench/micro_binpack.
[[nodiscard]] Packing first_fit_reference(
    std::span<const corpus::VirtualFile> files, Bytes capacity);

/// Packs into exactly `k` bins of `capacity` by first-fit; files that fit
/// in no bin spill into the currently least-loaded bin (capacity is a
/// target, not a hard limit — the planner prefers a balanced overflow to
/// an unschedulable input).  Returns k bins.  O(n log k): the fit query
/// and the spill target both come from one tree over bin residuals.
[[nodiscard]] Packing pack_into_k(std::span<const corpus::VirtualFile> files,
                                  std::size_t k, Bytes capacity);

/// Balanced assignment into `k` bins: each file goes to the least-loaded
/// bin (greedy makespan balance; the paper's "distribute the data
/// uniformly" improvement, Fig. 8(b)).  O(n log k) via a tree over bin
/// residuals.
[[nodiscard]] Packing uniform_bins(std::span<const corpus::VirtualFile> files,
                                   std::size_t k);

}  // namespace reshape::pack
