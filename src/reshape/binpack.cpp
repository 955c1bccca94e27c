#include "reshape/binpack.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "reshape/pack_index.hpp"

namespace reshape::pack {

namespace {

void place_new_bin(std::vector<Bin>& bins, const Item& item, Bytes capacity) {
  Bin bin;
  // Oversize items are unsplittable: give them a bin of their own size.
  bin.capacity = std::max(capacity, item.size);
  bin.used = item.size;
  bin.item_ids.push_back(item.id);
  bins.push_back(std::move(bin));
}

// The tournament tree keeps residuals as signed 64-bit; sizes at or above
// 2^63 would alias the closed-bin sentinel range.
std::int64_t signed_size(const Item& item) {
  RESHAPE_REQUIRE(
      item.size.count() <=
          static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
      "item size exceeds the packer's 2^63-1 byte limit");
  return static_cast<std::int64_t>(item.size.count());
}

}  // namespace

std::vector<Bin> first_fit(std::span<const Item> items, Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  std::vector<Bin> bins;
  detail::ResidualTree tree(items.size());
  for (const Item& item : items) {
    const std::int64_t need = signed_size(item);
    const std::size_t at = tree.find_first(need);
    if (at != detail::ResidualTree::npos) {
      Bin& bin = bins[at];
      bin.used += item.size;
      bin.item_ids.push_back(item.id);
      tree.deduct(at, need);
    } else {
      place_new_bin(bins, item, capacity);
      tree.push_bin(static_cast<std::int64_t>(bins.back().free().count()));
    }
  }
  return bins;
}

std::vector<Bin> first_fit_reference(std::span<const Item> items,
                                     Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  std::vector<Bin> bins;
  for (const Item& item : items) {
    bool placed = false;
    for (Bin& bin : bins) {
      if (bin.fits(item.size)) {
        bin.used += item.size;
        bin.item_ids.push_back(item.id);
        placed = true;
        break;
      }
    }
    if (!placed) place_new_bin(bins, item, capacity);
  }
  return bins;
}

std::vector<Bin> pack_into_k(std::span<const Item> items, std::size_t k,
                             Bytes capacity) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  std::vector<Bin> bins(k);
  detail::ResidualTree tree(k);
  detail::LoadHeap loads(k);
  for (Bin& b : bins) {
    b.capacity = capacity;
    tree.push_bin(static_cast<std::int64_t>(capacity.count()));
  }
  for (const Item& item : items) {
    const std::int64_t need = signed_size(item);
    std::size_t at = tree.find_first(need);
    if (at == detail::ResidualTree::npos) {
      // Spill to the least-loaded bin; capacity becomes advisory.
      at = loads.min_index();
    }
    bins[at].used += item.size;
    bins[at].item_ids.push_back(item.id);
    tree.deduct(at, need);
    loads.add(at, item.size.count());
  }
  return bins;
}

std::vector<Bin> uniform_bins(std::span<const Item> items, std::size_t k) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  std::vector<Bin> bins(k);
  Bytes total{0};
  for (const Item& item : items) total += item.size;
  for (Bin& b : bins) b.capacity = total;  // advisory
  detail::LoadHeap loads(k);
  for (const Item& item : items) {
    const std::size_t at = loads.min_index();
    bins[at].used += item.size;
    bins[at].item_ids.push_back(item.id);
    loads.add(at, item.size.count());
  }
  return bins;
}

}  // namespace reshape::pack
