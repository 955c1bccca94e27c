// Index structures that make bin-packing placements O(log b).
//
// The naive packers scan every open bin per item — quadratic over a
// million-file corpus.  These two structures carry the same decisions in
// logarithmic time:
//
//   * ResidualTree — a tournament tree (segment tree with max aggregation)
//     over per-bin residual capacities.  find_first(need) descends from the
//     root preferring the left child, so it returns the *leftmost* bin with
//     residual >= need — exactly the bin naive first-fit would pick.
//   * LoadHeap — a lazy min-heap over (bin load, bin index) for the
//     least-loaded-bin scans in pack_into_k / uniform_bins.  Loads only
//     grow, so stale entries surface before fresh ones and are popped.
//
// Residuals are signed: pack_into_k spills past capacity, driving a bin's
// residual negative, and a negative residual must simply never match a
// (non-negative) item size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace reshape::pack::detail {

/// Tournament tree over bin residual capacities; leftmost-fit queries and
/// point updates in O(log max_bins).
class ResidualTree {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Sizes the tree for at most `max_bins` bins (one per item suffices:
  /// a packer never opens more bins than it places items).
  explicit ResidualTree(std::size_t max_bins) {
    while (leaves_ < std::max<std::size_t>(max_bins, 1)) leaves_ *= 2;
    tree_.assign(2 * leaves_, kClosed);
  }

  /// Index of the leftmost bin with residual >= need, or npos.  `need`
  /// must be non-negative (closed bins sit at a negative sentinel).
  [[nodiscard]] std::size_t find_first(std::int64_t need) const {
    if (tree_[1] < need) return npos;
    std::size_t node = 1;
    while (node < leaves_) {
      node *= 2;
      if (tree_[node] < need) ++node;
    }
    return node - leaves_;
  }

  /// Opens the next bin with the given residual; returns its index.
  std::size_t push_bin(std::int64_t residual) {
    const std::size_t bin = bins_++;
    set(bin, residual);
    return bin;
  }

  /// Lowers a bin's residual by `amount` (may go negative: spill mode).
  void deduct(std::size_t bin, std::int64_t amount) {
    set(bin, tree_[leaves_ + bin] - amount);
  }

 private:
  void set(std::size_t bin, std::int64_t value) {
    std::size_t node = leaves_ + bin;
    tree_[node] = value;
    for (node /= 2; node >= 1; node /= 2) {
      tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  static constexpr std::int64_t kClosed =
      std::numeric_limits<std::int64_t>::min();

  std::size_t leaves_ = 1;
  std::size_t bins_ = 0;
  std::vector<std::int64_t> tree_;
};

/// Lazy min-heap over bin loads for least-loaded-bin selection in O(log n)
/// amortized.  Matches std::min_element's lowest-index tie-break because
/// entries order lexicographically on (load, index).
class LoadHeap {
 public:
  explicit LoadHeap(std::size_t bins) : load_(bins, 0) {
    for (std::size_t i = 0; i < bins; ++i) heap_.emplace(0, i);
  }

  /// Index of the least-loaded bin (lowest index among ties).
  [[nodiscard]] std::size_t min_index() {
    while (heap_.top().first != load_[heap_.top().second]) heap_.pop();
    return heap_.top().second;
  }

  void add(std::size_t bin, std::uint64_t amount) {
    load_[bin] += amount;
    heap_.emplace(load_[bin], bin);
  }

 private:
  std::vector<std::uint64_t> load_;
  std::priority_queue<std::pair<std::uint64_t, std::size_t>,
                      std::vector<std::pair<std::uint64_t, std::size_t>>,
                      std::greater<>>
      heap_;
};

}  // namespace reshape::pack::detail
