#include "reshape/binpack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

using Files = std::vector<corpus::VirtualFile>;

Files items_of(std::initializer_list<std::uint64_t> sizes) {
  Files files;
  std::uint64_t id = 0;
  for (const std::uint64_t s : sizes) files.push_back({id++, Bytes(s), 1.0});
  return files;
}

Files random_items(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  Files files;
  for (std::size_t i = 0; i < n; ++i) {
    files.push_back({i, dist.sample(rng), 1.0});
  }
  return files;
}

/// Number of files packed into each bin.
std::vector<std::size_t> members(const Packing& packing) {
  std::vector<std::size_t> count(packing.bins.size(), 0);
  for (const std::uint32_t b : packing.bin_of) ++count.at(b);
  return count;
}

/// Every input file sits in exactly one existing bin, and each bin's
/// `used` is the sum of its files.
void expect_partition(std::span<const corpus::VirtualFile> files,
                      const Packing& packing) {
  ASSERT_EQ(packing.bin_of.size(), files.size())
      << "a file was not placed exactly once";
  std::vector<Bytes> used(packing.bins.size(), Bytes(0));
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_LT(packing.bin_of[i], packing.bins.size());
    used[packing.bin_of[i]] += files[i].size;
  }
  Bytes packed{0};
  for (std::size_t b = 0; b < packing.bins.size(); ++b) {
    EXPECT_EQ(used[b], packing.bins[b].used)
        << "bin bookkeeping disagrees with contents";
    packed += used[b];
  }
  Bytes total{0};
  for (const corpus::VirtualFile& f : files) total += f.size;
  EXPECT_EQ(packed, total);
}

/// Lower bound on the bins any packer needs: ceil(total / capacity).
std::size_t volume_bound(std::span<const corpus::VirtualFile> files,
                         Bytes capacity) {
  Bytes total{0};
  for (const corpus::VirtualFile& f : files) total += f.size;
  return static_cast<std::size_t>(
      (total.count() + capacity.count() - 1) / capacity.count());
}

TEST(FirstFit, PlacesInFirstBinWithRoom) {
  const auto items = items_of({60, 50, 40, 30, 20});
  const Packing r = first_fit(items, Bytes(100));
  // 60 -> bin0; 50 -> bin1 (110 > 100); 40 -> bin0 (exactly 100);
  // 30 -> bin1 (80); 20 -> bin1 (100).
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_EQ(r.bins[0].used, Bytes(100));
  EXPECT_EQ(r.bins[1].used, Bytes(100));
  EXPECT_EQ(r.bin_of, (std::vector<std::uint32_t>{0, 1, 0, 1, 1}));
  expect_partition(items, r);
}

TEST(FirstFit, RespectsCapacityExceptOversize) {
  const auto items = random_items(3000, 2);
  const Bytes cap = 32_kB;
  const Packing r = first_fit(items, cap);
  const std::vector<std::size_t> count = members(r);
  for (std::size_t b = 0; b < r.bins.size(); ++b) {
    if (count[b] > 1) {
      EXPECT_LE(r.bins[b].used, cap);
    }
  }
}

TEST(FirstFit, OversizeItemGetsOwnBin) {
  const auto items = items_of({10, 500, 10});
  const Packing r = first_fit(items, Bytes(100));
  const std::vector<std::size_t> count = members(r);
  bool found_oversize = false;
  for (std::size_t b = 0; b < r.bins.size(); ++b) {
    if (r.bins[b].used == Bytes(500)) {
      EXPECT_EQ(count[b], 1u);
      EXPECT_EQ(r.bins[b].capacity, Bytes(500));
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
    EXPECT_LT(first_fit(items, 64_kB).bins.size(), 2 * lb + 2)
        << "seed " << seed;
  }
}

TEST(PackIntoK, ExactlyKBinsCoveringAllItems) {
  const auto items = random_items(500, 9);
  const Packing packing = pack_into_k(items, 7, 10_MB);
  EXPECT_EQ(packing.bins.size(), 7u);
  expect_partition(items, packing);
}

TEST(PackIntoK, SpillsToLeastLoadedWhenFull) {
  // Capacity far below total: everything spills, ending near-balanced.
  const auto items = random_items(1000, 10);
  const Packing packing = pack_into_k(items, 4, 1_kB);
  expect_partition(items, packing);
  const std::vector<Bin>& bins = packing.bins;
  Bytes lo = bins[0].used, hi = bins[0].used;
  for (const Bin& b : bins) {
    lo = std::min(lo, b.used);
    hi = std::max(hi, b.used);
  }
  EXPECT_LT(hi.as_double() / std::max(1.0, lo.as_double()), 1.6);
}

TEST(UniformBins, BalancesVolume) {
  const auto items = random_items(5000, 11);
  const Packing packing = uniform_bins(items, 9);
  expect_partition(items, packing);
  Bytes total{0};
  for (const corpus::VirtualFile& f : items) total += f.size;
  const double ideal = total.as_double() / 9.0;
  for (const Bin& b : packing.bins) {
    EXPECT_NEAR(b.used.as_double(), ideal, ideal * 0.05);
  }
}

TEST(UniformBins, MaxBinBelowFirstFitMaxBin) {
  // The Fig. 8(a)->8(b) improvement: balancing lowers the largest share.
  const auto items = random_items(3000, 12);
  const Packing ff = pack_into_k(items, 5, 40_MB);
  const Packing uni = uniform_bins(items, 5);
  auto max_used = [](const Packing& packing) {
    Bytes m{0};
    for (const Bin& b : packing.bins) m = std::max(m, b.used);
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
  // Bin indices are 32-bit; the check fires before any bin is allocated.
  EXPECT_THROW((void)pack_into_k(items, kMaxInputs + 1, Bytes(10)), Error);
  EXPECT_THROW((void)uniform_bins(items, kMaxInputs + 1), Error);
}

TEST(BinPack, EmptyInputYieldsNoBins) {
  const Files none;
  EXPECT_TRUE(first_fit(none, Bytes(10)).bins.empty());
  EXPECT_TRUE(first_fit_reference(none, Bytes(10)).bins.empty());
  EXPECT_TRUE(first_fit(none, Bytes(10)).bin_of.empty());
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
      [cap](const corpus::VirtualFile& f) { return f.size <= cap; });
  for (const Packing& r :
       {first_fit(items, cap), first_fit_reference(items, cap)}) {
    expect_partition(items, r);
    if (no_oversize) {
      // With oversize items the ceil(V/C) bound does not apply: a
      // dedicated oversize bin can carry more than C.
      EXPECT_GE(r.bins.size(), volume_bound(items, cap));
    }
    const std::vector<std::size_t> count = members(r);
    for (std::size_t b = 0; b < r.bins.size(); ++b) {
      EXPECT_GT(count[b], 0u);
      if (count[b] > 1) {
        EXPECT_LE(r.bins[b].used, cap);
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
