// The index structure that makes bin-packing placements O(log b).
//
// The naive packers scan every open bin per item — quadratic over a
// million-file corpus.  ResidualTree carries the same decisions in
// logarithmic time: an 8-ary tournament tree (max aggregation) over the
// per-bin residual capacities.  Each node's eight children are one
// 64-byte block, so a descent touches one cache line per level, and the
// 89,977 bins of an 18M-file merge sit under 6 levels.
//
//   * find_first(need) takes the leftmost child with residual >= need at
//     every level, so it returns the *leftmost* bin with residual >= need
//     — exactly the bin naive first-fit would pick.
//   * max() is the largest residual.  When every bin has the same
//     capacity, that is the least-loaded bin, and find_first(max()) is the
//     lowest-indexed one among ties — the std::min_element choice of
//     pack_into_k's spill and of uniform_bins.
//
// The tree grows with the bins: it starts as one block and adds a level
// on top when the leaves are full, so its size follows the bin count, not
// the item count.  An update re-aggregates upward and stops at the first
// ancestor whose maximum does not change.  The newest bin stays outside
// the tree until the next one opens: first-fit places most files there
// (97% of an 18M-file merge), and as the fullest-residual bin of the run
// it would carry every update up to the root.
//
// Residuals are signed: pack_into_k spills past capacity, driving a bin's
// residual negative.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace reshape::pack::detail {

/// 8-ary tournament tree over bin residual capacities; leftmost-fit
/// queries and point updates in O(log_8 b) for b bins.
class ResidualTree {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  ResidualTree() : levels_{{kClosedBlock}} {}

  /// The largest residual of any bin.  Needs at least one bin.
  [[nodiscard]] std::int64_t max() const { return std::max(root_, newest_); }

  /// Index of the leftmost bin with residual >= need, or npos.  `need`
  /// may be negative (the spill target is find_first(max())): only unused
  /// slots sit at the sentinel, below every residual.
  [[nodiscard]] std::size_t find_first(std::int64_t need) const {
    if (root_ < need) return newest_ >= need ? bins_ - 1 : npos;
    std::size_t node = 0;
    for (std::size_t level = levels_.size(); level-- > 0;) {
      node = node * kFanout + first_at_least(levels_[level][node], need);
    }
    return node;
  }

  /// Opens the next bin with the given residual; returns its index.
  std::size_t push_bin(std::int64_t residual) {
    if (bins_ > 0) insert(bins_ - 1, newest_);
    newest_ = residual;
    return bins_++;
  }

  /// Lowers a bin's residual by `amount` (may go negative: spill mode).
  void deduct(std::size_t bin, std::int64_t amount) {
    if (bin + 1 == bins_) {
      newest_ -= amount;
    } else {
      set(bin, levels_[0][bin / kFanout].slots[bin % kFanout] - amount);
    }
  }

 private:
  static constexpr std::size_t kFanout = 8;
  /// One node's children: a cache-line-aligned 64-byte line.
  struct alignas(64) Block {
    std::array<std::int64_t, kFanout> slots;
  };
  static_assert(sizeof(Block) == 64, "one block is one cache line");

  static constexpr std::int64_t kClosed =
      std::numeric_limits<std::int64_t>::min();
  static constexpr Block kClosedBlock = [] {
    Block block{};
    block.slots.fill(kClosed);
    return block;
  }();

  /// The first slot of `block` holding at least `need`; the caller knows
  /// one does (the parent's maximum is >= need).
  static std::size_t first_at_least(const Block& block, std::int64_t need) {
    unsigned mask = 0;
    for (std::size_t i = 0; i < kFanout; ++i) {
      mask |= static_cast<unsigned>(block.slots[i] >= need) << i;
    }
    return static_cast<std::size_t>(std::countr_zero(mask));
  }

  static std::int64_t block_max(const Block& block) {
    std::int64_t m = block.slots[0];
    for (std::size_t i = 1; i < kFanout; ++i) m = std::max(m, block.slots[i]);
    return m;
  }

  /// Gives bin `bin` (the next leaf) its slot, growing the tree when the
  /// leaves are full: the old root becomes the first child of a new top
  /// block.
  void insert(std::size_t bin, std::int64_t residual) {
    if (bin == leaf_slots_) {
      Block top = kClosedBlock;
      top.slots[0] = root_;
      levels_.push_back({top});
      leaf_slots_ *= kFanout;
    }
    std::size_t node = bin;
    for (std::vector<Block>& level : levels_) {
      if (node / kFanout == level.size()) level.push_back(kClosedBlock);
      node /= kFanout;
    }
    set(bin, residual);
  }

  /// Writes a bin's residual and re-aggregates upward, stopping at the
  /// first ancestor whose maximum does not change.
  void set(std::size_t bin, std::int64_t value) {
    std::size_t node = bin;
    for (std::vector<Block>& level : levels_) {
      Block& block = level[node / kFanout];
      std::int64_t& slot = block.slots[node % kFanout];
      if (slot == value) return;
      slot = value;
      value = block_max(block);
      node /= kFanout;
    }
    root_ = value;
  }

  /// levels_[0] holds the leaves (one slot per bin but the newest); each
  /// level above holds one slot per block of the level below; the top
  /// level is one block, whose maximum is root_.
  std::vector<std::vector<Block>> levels_;
  std::size_t leaf_slots_ = kFanout;
  std::size_t bins_ = 0;
  std::int64_t root_ = kClosed;
  std::int64_t newest_ = kClosed;
};

}  // namespace reshape::pack::detail
