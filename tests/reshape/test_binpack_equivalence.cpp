// The contract of the O(log b) packers: bit-for-bit identical packings
// (bin sizes and every file's bin) to the naive reference scans, across 1k
// seeded corpora with varied sizes, zero-size and oversize items.

#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

using Files = std::vector<corpus::VirtualFile>;

void expect_identical(const Packing& got, const Packing& want,
                      const char* algo, std::uint64_t seed) {
  ASSERT_EQ(got.bins.size(), want.bins.size())
      << algo << " bin count diverged, seed " << seed;
  for (std::size_t b = 0; b < got.bins.size(); ++b) {
    ASSERT_EQ(got.bins[b].capacity, want.bins[b].capacity)
        << algo << " bin " << b << " capacity, seed " << seed;
    ASSERT_EQ(got.bins[b].used, want.bins[b].used)
        << algo << " bin " << b << " used, seed " << seed;
  }
  ASSERT_EQ(got.bin_of, want.bin_of)
      << algo << " bin contents diverged, seed " << seed;
}

/// A small corpus with the long-tail size distribution, plus injected
/// oversize items (several times the largest capacity under test) and
/// occasional zero-size files.
Files fuzz_items(Rng& rng) {
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  const std::size_t n =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 299));
  Files items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes size = dist.sample(rng);
    const double roll = rng.uniform();
    if (roll < 0.05) {
      size = size * 64 + 2_MB;  // guaranteed oversize for every capacity
    } else if (roll < 0.08) {
      size = Bytes(0);
    }
    items.push_back({i, size, 1.0});
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
    const Files items = fuzz_items(rng);
    const Bytes cap = fuzz_capacity(rng);
    expect_identical(first_fit(items, cap), first_fit_reference(items, cap),
                     "first_fit", seed);
  }
}

// pack_into_k and uniform_bins moved from linear min-scans to a tournament
// tree + lazy min-heap; pin them to inline transcriptions of the original
// loops.

bool less_used(const Bin& a, const Bin& b) { return a.used < b.used; }

void place(Packing& packing, std::vector<Bin>::iterator target, Bytes size) {
  target->used += size;
  packing.bin_of.push_back(
      static_cast<std::uint32_t>(target - packing.bins.begin()));
}

Packing naive_pack_into_k(const Files& items, std::size_t k, Bytes capacity) {
  Packing packing;
  packing.bins.assign(k, Bin{capacity, Bytes(0)});
  auto& bins = packing.bins;
  for (const corpus::VirtualFile& item : items) {
    auto target = std::find_if(
        bins.begin(), bins.end(),
        [&item](const Bin& bin) { return bin.fits(item.size); });
    if (target == bins.end()) {
      target = std::min_element(bins.begin(), bins.end(), less_used);
    }
    place(packing, target, item.size);
  }
  return packing;
}

Packing naive_uniform_bins(const Files& items, std::size_t k) {
  Bytes total{0};
  for (const corpus::VirtualFile& item : items) total += item.size;
  Packing packing;
  packing.bins.assign(k, Bin{total, Bytes(0)});
  for (const corpus::VirtualFile& item : items) {
    place(packing,
          std::min_element(packing.bins.begin(), packing.bins.end(),
                           less_used),
          item.size);
  }
  return packing;
}

TEST(PackEquivalence, FixedBinPackersMatchNaiveScans) {
  for (std::uint64_t seed = 2000; seed < 2200; ++seed) {
    Rng rng(seed);
    const Files items = fuzz_items(rng);
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
