#include "reshape/probe.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

corpus::Corpus big_corpus(std::uint64_t seed = 1) {
  Rng rng(seed);
  return corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng);
}

TEST(ProbeSet, ContainsOriginalAndUnitProbes) {
  const corpus::Corpus c = big_corpus();
  const std::vector<std::uint64_t> multiples{2, 4, 8};
  const ProbeSet set = build_probe_set(c, 2_MB, 1_MB, multiples);
  // orig + s0 + three multiples.
  EXPECT_EQ(set.probes.size(), 5u);
  EXPECT_TRUE(set.probes.front().original);
  EXPECT_EQ(set.original().label, "orig");
  EXPECT_EQ(set.probes[1].unit, 1_MB);
  EXPECT_EQ(set.probes[2].unit, 2_MB);
  EXPECT_EQ(set.probes[4].unit, 8_MB);
}

TEST(ProbeSet, AllProbesShareTheVolume) {
  const corpus::Corpus c = big_corpus();
  const std::vector<std::uint64_t> multiples{2};
  const ProbeSet set = build_probe_set(c, 5_MB, 1_MB, multiples);
  for (const ProbeSpec& p : set.probes) {
    EXPECT_EQ(p.volume, set.volume);
  }
  EXPECT_GE(set.volume, 5_MB);
}

TEST(ProbeSet, FileCountsDecreaseWithUnitSize) {
  const corpus::Corpus c = big_corpus();
  const std::vector<std::uint64_t> multiples{2, 4};
  const ProbeSet set = build_probe_set(c, 4_MB, 1_MB, multiples);
  const ProbeSpec& orig = set.probes[0];
  for (std::size_t i = 1; i < set.probes.size(); ++i) {
    EXPECT_LT(set.probes[i].file_count, orig.file_count);
    if (i > 1) {
      EXPECT_LE(set.probes[i].file_count, set.probes[i - 1].file_count);
    }
  }
}

TEST(ProbeSet, S0MustExceedLargestFile) {
  const corpus::Corpus c = big_corpus();
  const std::vector<std::uint64_t> multiples{2};
  // 1 kB is below the largest file in any realistic draw.
  EXPECT_THROW((void)build_probe_set(c, 2_MB, 1_kB, multiples), Error);
}

TEST(ProbeSet, MultipleOfOneRejected) {
  const corpus::Corpus c = big_corpus();
  const std::vector<std::uint64_t> multiples{1};
  EXPECT_THROW((void)build_probe_set(c, 2_MB, 1_MB, multiples), Error);
}

TEST(ProbeSet, NoOriginalProbeThrows) {
  const ProbeSet empty;
  EXPECT_THROW((void)empty.original(), Error);
}

}  // namespace
}  // namespace reshape::pack
