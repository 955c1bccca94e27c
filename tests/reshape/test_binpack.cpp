#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

std::vector<Item> items_of(std::initializer_list<std::uint64_t> sizes) {
  std::vector<Item> items;
  std::uint64_t id = 0;
  for (const std::uint64_t s : sizes) items.push_back(Item{id++, Bytes(s)});
  return items;
}

std::vector<Item> random_items(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{i, dist.sample(rng)});
  }
  return items;
}

/// Every input item appears in exactly one bin.
void expect_partition(std::span<const Item> items,
                      const std::vector<Bin>& bins) {
  std::multiset<std::uint64_t> placed;
  Bytes packed{0};
  for (const Bin& b : bins) {
    Bytes used{0};
    for (const std::uint64_t id : b.item_ids) {
      placed.insert(id);
      used += items[id].size;  // ids are positional in these tests
    }
    EXPECT_EQ(used, b.used) << "bin bookkeeping disagrees with contents";
    packed += used;
  }
  EXPECT_EQ(placed.size(), items.size());
  std::set<std::uint64_t> unique(placed.begin(), placed.end());
  EXPECT_EQ(unique.size(), items.size()) << "an item was placed twice";
  Bytes total{0};
  for (const Item& i : items) total += i.size;
  EXPECT_EQ(packed, total);
}

/// Lower bound on the bins any packer needs: ceil(total / capacity).
std::size_t volume_bound(std::span<const Item> items, Bytes capacity) {
  Bytes total{0};
  for (const Item& i : items) total += i.size;
  return static_cast<std::size_t>(
      (total.count() + capacity.count() - 1) / capacity.count());
}

TEST(FirstFit, PlacesInFirstBinWithRoom) {
  const auto items = items_of({60, 50, 40, 30, 20});
  const std::vector<Bin> r = first_fit(items, Bytes(100));
  // 60 -> bin0; 50 -> bin1 (110 > 100); 40 -> bin0 (exactly 100);
  // 30 -> bin1 (80); 20 -> bin1 (100).
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].used, Bytes(100));
  EXPECT_EQ(r[1].used, Bytes(100));
  expect_partition(items, r);
}

TEST(FirstFit, RespectsCapacityExceptOversize) {
  const auto items = random_items(3000, 2);
  const Bytes cap = 32_kB;
  for (const Bin& b : first_fit(items, cap)) {
    if (b.item_ids.size() > 1) {
      EXPECT_LE(b.used, cap);
    }
  }
}

TEST(FirstFit, OversizeItemGetsOwnBin) {
  const auto items = items_of({10, 500, 10});
  const std::vector<Bin> r = first_fit(items, Bytes(100));
  bool found_oversize = false;
  for (const Bin& b : r) {
    if (b.used == Bytes(500)) {
      EXPECT_EQ(b.item_ids.size(), 1u);
      found_oversize = true;
    }
  }
  EXPECT_TRUE(found_oversize);
  expect_partition(items, r);
}

TEST(FirstFit, NeverWorseThanTwiceOptimal) {
  // Classic guarantee: FF uses < 2 * OPT + 1 bins; OPT >= ceil(V/C).
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const auto items = random_items(1500, seed);
    const std::size_t lb = volume_bound(items, 64_kB);
    EXPECT_LT(first_fit(items, 64_kB).size(), 2 * lb + 2) << "seed " << seed;
  }
}

TEST(PackIntoK, ExactlyKBinsCoveringAllItems) {
  const auto items = random_items(500, 9);
  const auto bins = pack_into_k(items, 7, 10_MB);
  EXPECT_EQ(bins.size(), 7u);
  expect_partition(items, bins);
}

TEST(PackIntoK, SpillsToLeastLoadedWhenFull) {
  // Capacity far below total: everything spills, ending near-balanced.
  const auto items = random_items(1000, 10);
  const auto bins = pack_into_k(items, 4, 1_kB);
  expect_partition(items, bins);
  Bytes lo = bins[0].used, hi = bins[0].used;
  for (const Bin& b : bins) {
    lo = std::min(lo, b.used);
    hi = std::max(hi, b.used);
  }
  EXPECT_LT(hi.as_double() / std::max(1.0, lo.as_double()), 1.6);
}

TEST(UniformBins, BalancesVolume) {
  const auto items = random_items(5000, 11);
  const auto bins = uniform_bins(items, 9);
  expect_partition(items, bins);
  Bytes total{0};
  for (const Item& i : items) total += i.size;
  const double ideal = total.as_double() / 9.0;
  for (const Bin& b : bins) {
    EXPECT_NEAR(b.used.as_double(), ideal, ideal * 0.05);
  }
}

TEST(UniformBins, MaxBinBelowFirstFitMaxBin) {
  // The Fig. 8(a)->8(b) improvement: balancing lowers the largest share.
  const auto items = random_items(3000, 12);
  const auto ff = pack_into_k(items, 5, 40_MB);
  const auto uni = uniform_bins(items, 5);
  auto max_used = [](const std::vector<Bin>& bins) {
    Bytes m{0};
    for (const Bin& b : bins) m = std::max(m, b.used);
    return m;
  };
  EXPECT_LE(max_used(uni), max_used(ff));
}

TEST(BinPack, InvalidArgumentsThrow) {
  const auto items = items_of({1});
  EXPECT_THROW((void)first_fit(items, Bytes(0)), Error);
  EXPECT_THROW((void)first_fit_reference(items, Bytes(0)), Error);
  EXPECT_THROW((void)pack_into_k(items, 0, Bytes(10)), Error);
  EXPECT_THROW((void)pack_into_k(items, 1, Bytes(0)), Error);
  EXPECT_THROW((void)uniform_bins(items, 0), Error);
}

TEST(BinPack, EmptyInputYieldsNoBins) {
  const std::vector<Item> none;
  EXPECT_TRUE(first_fit(none, Bytes(10)).empty());
  EXPECT_TRUE(first_fit_reference(none, Bytes(10)).empty());
}

// Property sweep: partition + capacity invariants across both first-fit
// implementations, capacities and seeds.
struct PackCase {
  std::uint64_t seed;
  std::uint64_t capacity;
};

class PackProperty : public ::testing::TestWithParam<PackCase> {};

TEST_P(PackProperty, AllAlgorithmsPartitionInput) {
  const auto [seed, capacity] = GetParam();
  const auto items = random_items(800, seed);
  const Bytes cap(capacity);
  const bool no_oversize = std::all_of(
      items.begin(), items.end(),
      [cap](const Item& i) { return i.size <= cap; });
  for (const std::vector<Bin>& r :
       {first_fit(items, cap), first_fit_reference(items, cap)}) {
    expect_partition(items, r);
    if (no_oversize) {
      // With oversize items the ceil(V/C) bound does not apply: a
      // dedicated oversize bin can carry more than C.
      EXPECT_GE(r.size(), volume_bound(items, cap));
    }
    for (const Bin& b : r) {
      EXPECT_FALSE(b.item_ids.empty());
      if (b.item_ids.size() > 1) {
        EXPECT_LE(b.used, cap);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackProperty,
    ::testing::Values(PackCase{21, 8'000}, PackCase{22, 16'000},
                      PackCase{23, 64'000}, PackCase{24, 256'000},
                      PackCase{25, 1'000'000}, PackCase{26, 5'000'000}));

}  // namespace
}  // namespace reshape::pack
