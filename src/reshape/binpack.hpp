// Bin packing — the mechanism behind input reshaping.
//
// The paper merges small files into unit-sized blocks with the subset-sum
// first-fit heuristic (§1, §4, citing Vazirani): bins have capacity equal
// to the desired unit file size, and items are offered to the first bin
// with room.  Items are packed in their *original order*: §5.2 deliberately
// does not sort them by decreasing size, because that front-loads large
// files and the POS tagger degrades on them.  The deadline planner adds a
// fixed-bin-count first-fit (Fig. 8(a)) and a uniform balance (Fig. 8(b)).
// Every packer reads the caller's span in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace reshape::pack {

/// One item to pack (a file).
struct Item {
  std::uint64_t id = 0;
  Bytes size{0};
};

/// One bin (a merged block / an instance's share).
struct Bin {
  Bytes capacity{0};
  Bytes used{0};
  std::vector<std::uint64_t> item_ids;

  [[nodiscard]] Bytes free() const { return capacity - used; }
  [[nodiscard]] bool fits(Bytes size) const { return used + size <= capacity; }
};

/// Subset-sum first-fit: opens a new bin of `capacity` whenever no
/// existing bin fits.  Items larger than `capacity` get a dedicated
/// oversize bin (files are unsplittable, §5).  Each placement is O(log b)
/// via a tournament tree over bin residuals; bin assignments are
/// bit-for-bit identical to first_fit_reference.
[[nodiscard]] std::vector<Bin> first_fit(std::span<const Item> items,
                                         Bytes capacity);

/// Textbook O(n·b) first-fit: scans every open bin per item.  Kept as the
/// equivalence oracle for the tree-based first_fit and as the baseline in
/// bench/micro_binpack.
[[nodiscard]] std::vector<Bin> first_fit_reference(std::span<const Item> items,
                                                   Bytes capacity);

/// Packs into exactly `k` bins of `capacity` by first-fit; items that fit
/// in no bin spill into the currently least-loaded bin (capacity is a
/// target, not a hard limit — the planner prefers a balanced overflow to
/// an unschedulable input).  Returns k bins.  O(n log k): tournament-tree
/// fit queries plus a lazy min-heap for the spill target.
[[nodiscard]] std::vector<Bin> pack_into_k(std::span<const Item> items,
                                           std::size_t k, Bytes capacity);

/// Balanced assignment into `k` bins: each item goes to the least-loaded
/// bin (greedy makespan balance; the paper's "distribute the data
/// uniformly" improvement, Fig. 8(b)).  O(n log k) via a lazy min-heap.
[[nodiscard]] std::vector<Bin> uniform_bins(std::span<const Item> items,
                                            std::size_t k);

}  // namespace reshape::pack
