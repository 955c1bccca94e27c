#include "reshape/merge.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

corpus::Corpus sample_corpus(std::size_t n = 2000, std::uint64_t seed = 1) {
  Rng rng(seed);
  return corpus::Corpus::generate(corpus::text_400k_sizes(), n, rng);
}

/// Every file of `c` sits in exactly one existing block, and each block's
/// `used` is the sum of its files.
void expect_partition(const corpus::Corpus& c, const MergedCorpus& merged) {
  ASSERT_EQ(merged.bin_of.size(), c.file_count());
  std::vector<Bytes> used(merged.block_count(), Bytes(0));
  for (std::size_t i = 0; i < c.file_count(); ++i) {
    ASSERT_LT(merged.bin_of[i], merged.block_count());
    used[merged.bin_of[i]] += c.files()[i].size;
  }
  for (std::size_t b = 0; b < merged.block_count(); ++b) {
    EXPECT_EQ(used[b], merged.blocks[b].used) << "block " << b;
  }
  EXPECT_EQ(merged.total_volume(), c.total_volume());
}

corpus::Corpus corpus_of(const std::vector<std::string>& texts) {
  std::vector<corpus::VirtualFile> files;
  for (std::uint64_t i = 0; i < texts.size(); ++i) {
    files.push_back(corpus::VirtualFile{i, Bytes(texts[i].size()), 1.0});
  }
  return corpus::Corpus{std::move(files)};
}

TEST(MergeToUnit, EveryFileInExactlyOneBlock) {
  const corpus::Corpus c = sample_corpus();
  expect_partition(c, merge_to_unit(c, 1_MB));
}

TEST(MergeToUnit, BlocksRespectUnit) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  EXPECT_LE(merged.largest_block(), 1_MB);
  EXPECT_GT(merged.fill_factor(), 0.8);  // first-fit packs densely here
  EXPECT_LT(merged.block_count(), c.file_count());
}

TEST(MergeToUnit, ReducesFileCountDramatically) {
  // The headline mechanism: 2000 small files -> a handful of unit blocks.
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  EXPECT_LT(merged.block_count() * 100, c.file_count());
}

TEST(MergeToUnit, InvalidUnitThrows) {
  const corpus::Corpus c = sample_corpus(50);
  EXPECT_THROW((void)merge_to_unit(c, Bytes(0)), Error);
}

TEST(MergeToUnit, OversizeFileKeepsFillAtMostOne) {
  // A file above the unit gets a block of its own size: that block is
  // full, not 2.5x full.
  const corpus::Corpus c = corpus_of({"aa", std::string(25, 'x'), "bbb"});
  const MergedCorpus merged = merge_to_unit(c, Bytes(10));
  ASSERT_EQ(merged.block_count(), 2u);
  EXPECT_EQ(merged.blocks[1].capacity, Bytes(25));
  EXPECT_EQ(merged.bin_of, (std::vector<std::uint32_t>{0, 1, 0}));
  EXPECT_DOUBLE_EQ(merged.fill_factor(), 30.0 / 35.0);
  EXPECT_LE(merged.fill_factor(), 1.0);
}

TEST(DeriveMultiple, ConcatenatesConsecutiveBlocks) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus base = merge_to_unit(c, 500_kB);
  const MergedCorpus doubled = derive_multiple(base, 2);
  EXPECT_EQ(doubled.unit, 1_MB);
  EXPECT_EQ(doubled.block_count(), (base.block_count() + 1) / 2);
  EXPECT_EQ(doubled.total_volume(), base.total_volume());
  // m == 1 is the identity.
  const MergedCorpus same = derive_multiple(base, 1);
  EXPECT_EQ(same.block_count(), base.block_count());
  EXPECT_EQ(same.bin_of, base.bin_of);
  EXPECT_THROW((void)derive_multiple(base, 0), Error);
}

TEST(DeriveMultiple, PreservesItemPartition) {
  const corpus::Corpus c = sample_corpus(500, 7);
  const MergedCorpus base = merge_to_unit(c, 200_kB);
  const MergedCorpus m4 = derive_multiple(base, 4);
  expect_partition(c, m4);
  for (std::size_t i = 0; i < c.file_count(); ++i) {
    EXPECT_EQ(m4.bin_of[i], base.bin_of[i] / 4) << "file " << i;
  }
}

TEST(Materialize, ConcatenatesRealBytes) {
  const std::vector<std::string> texts{"aaa", "bb", "cccc", "d"};
  const MergedCorpus merged = merge_to_unit(corpus_of(texts), Bytes(5));
  const std::vector<std::string> blocks = materialize(merged, texts);
  ASSERT_EQ(blocks.size(), merged.block_count());
  std::size_t total = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].size(), merged.blocks[b].used.count());
    total += blocks[b].size();
  }
  EXPECT_EQ(total, 10u);  // all bytes survive the merge
  // Each block holds its files in corpus order.
  EXPECT_EQ(blocks, (std::vector<std::string>{"aaabb", "ccccd"}));
}

TEST(Materialize, BadIdThrows) {
  MergedCorpus merged;
  merged.unit = Bytes(10);
  merged.blocks.push_back(Bin{Bytes(10), Bytes(8)});
  merged.bin_of = {0};
  // One text per merged file.
  EXPECT_THROW((void)materialize(merged, {"only-one", "extra"}), Error);
  // A file assigned to a block that does not exist.
  merged.bin_of = {1};
  EXPECT_THROW((void)materialize(merged, {"only-one"}), Error);
}

TEST(MergedCorpus, EmptyAccessors) {
  const MergedCorpus empty;
  EXPECT_EQ(empty.block_count(), 0u);
  EXPECT_EQ(empty.total_volume(), 0_B);
  EXPECT_DOUBLE_EQ(empty.fill_factor(), 0.0);
}

}  // namespace
}  // namespace reshape::pack
