// The contract of the O(log b) packers: bit-for-bit identical bin
// assignments to the naive reference scans, across 1k seeded corpora with
// varied sizes, zero-size and oversize items.

#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

void expect_identical(const std::vector<Bin>& got,
                      const std::vector<Bin>& want, const char* algo,
                      std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size())
      << algo << " bin count diverged, seed " << seed;
  for (std::size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].capacity, want[b].capacity)
        << algo << " bin " << b << " capacity, seed " << seed;
    ASSERT_EQ(got[b].used, want[b].used)
        << algo << " bin " << b << " used, seed " << seed;
    ASSERT_EQ(got[b].item_ids, want[b].item_ids)
        << algo << " bin " << b << " contents, seed " << seed;
  }
}

/// A small corpus with the long-tail size distribution, plus injected
/// oversize items (several times the largest capacity under test) and
/// occasional zero-size files.
std::vector<Item> fuzz_items(Rng& rng) {
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  const std::size_t n =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 299));
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes size = dist.sample(rng);
    const double roll = rng.uniform();
    if (roll < 0.05) {
      size = size * 64 + 2_MB;  // guaranteed oversize for every capacity
    } else if (roll < 0.08) {
      size = Bytes(0);
    }
    items.push_back(Item{i, size});
  }
  return items;
}

Bytes fuzz_capacity(Rng& rng) {
  constexpr std::uint64_t kChoices[] = {1'000, 8'000, 64'000, 256'000,
                                        1'000'000};
  return Bytes(kChoices[rng.uniform_below(std::size(kChoices))]);
}

TEST(PackEquivalence, TreeFirstFitMatchesReferenceAcross1kCorpora) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::vector<Item> items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    expect_identical(first_fit(items, cap), first_fit_reference(items, cap),
                     "first_fit", seed);
  }
}

// pack_into_k and uniform_bins moved from linear min-scans to a tournament
// tree + lazy min-heap; pin them to inline transcriptions of the original
// loops.

std::vector<Bin> naive_pack_into_k(std::span<const Item> items, std::size_t k,
                                   Bytes capacity) {
  std::vector<Bin> bins(k);
  for (Bin& b : bins) b.capacity = capacity;
  for (const Item& item : items) {
    Bin* target = nullptr;
    for (Bin& bin : bins) {
      if (bin.fits(item.size)) {
        target = &bin;
        break;
      }
    }
    if (target == nullptr) {
      target = &*std::min_element(
          bins.begin(), bins.end(),
          [](const Bin& a, const Bin& b) { return a.used < b.used; });
    }
    target->used += item.size;
    target->item_ids.push_back(item.id);
  }
  return bins;
}

std::vector<Bin> naive_uniform_bins(std::span<const Item> items,
                                    std::size_t k) {
  std::vector<Bin> bins(k);
  Bytes total{0};
  for (const Item& item : items) total += item.size;
  for (Bin& b : bins) b.capacity = total;
  for (const Item& item : items) {
    Bin& target = *std::min_element(
        bins.begin(), bins.end(),
        [](const Bin& a, const Bin& b) { return a.used < b.used; });
    target.used += item.size;
    target.item_ids.push_back(item.id);
  }
  return bins;
}

TEST(PackEquivalence, FixedBinPackersMatchNaiveScans) {
  for (std::uint64_t seed = 2000; seed < 2200; ++seed) {
    Rng rng(seed);
    const std::vector<Item> items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    expect_identical(pack_into_k(items, k, cap),
                     naive_pack_into_k(items, k, cap), "pack_into_k", seed);
    expect_identical(uniform_bins(items, k), naive_uniform_bins(items, k),
                     "uniform_bins", seed);
  }
}

}  // namespace
}  // namespace reshape::pack
