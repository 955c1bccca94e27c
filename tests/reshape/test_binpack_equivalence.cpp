// The contract of the O(log b) packers: bit-for-bit identical packings
// (bin sizes and every file's bin) to the naive reference scans, across 1k
// seeded corpora with varied sizes, zero-size and oversize items, and
// across the 8-ary tree's level boundaries (8, 64, 512 bins).

#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "corpus/distribution.hpp"
#include "naive_pack.hpp"

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

/// `n` items with the long-tail size distribution, plus injected
/// oversize items (several times the largest capacity under test) and
/// occasional zero-size files.
Files fuzz_items(Rng& rng, std::size_t n) {
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
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

/// A small corpus of 1 to 300 items.
Files fuzz_items(Rng& rng) {
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 299));
  return fuzz_items(rng, n);
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

// pack_into_k and uniform_bins against the textbook scans.
using bench::naive_pack_into_k;
using bench::naive_uniform_bins;

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

// 5,000 items at a 1 kB capacity open thousands of bins, so the tree
// grows past 8, 64 and 512 leaves and descends four levels and more.
TEST(PackEquivalence, TreeFirstFitMatchesReferenceAcrossLevelBoundaries) {
  for (std::uint64_t seed = 3000; seed < 3020; ++seed) {
    Rng rng(seed);
    const Files items = fuzz_items(rng, 5'000);
    const Packing got = first_fit(items, 1_kB);
    ASSERT_GT(got.bins.size(), 512u) << "seed " << seed;
    expect_identical(got, first_fit_reference(items, 1_kB), "first_fit",
                     seed);
  }
}

// k on both sides of every level boundary.  Capacities: 1 byte (every
// non-empty item spills, so every residual goes negative), 1 kB (most
// spill), and the balanced share of the volume (fit first, spill late).
TEST(PackEquivalence, FixedBinPackersMatchNaiveScansAcrossLevelBoundaries) {
  constexpr std::size_t kBins[] = {1, 7, 8, 9, 63, 64, 65, 511, 512, 513};
  for (std::uint64_t seed = 4000; seed < 4004; ++seed) {
    Rng rng(seed);
    const Files items = fuzz_items(rng, 3'000);
    Bytes total{0};
    for (const corpus::VirtualFile& item : items) total += item.size;
    for (const std::size_t k : kBins) {
      for (const Bytes cap : {Bytes(1), 1_kB, total / k + 1_B}) {
        expect_identical(pack_into_k(items, k, cap),
                         naive_pack_into_k(items, k, cap), "pack_into_k",
                         seed);
      }
      expect_identical(uniform_bins(items, k), naive_uniform_bins(items, k),
                       "uniform_bins", seed);
    }
  }
}

}  // namespace
}  // namespace reshape::pack
