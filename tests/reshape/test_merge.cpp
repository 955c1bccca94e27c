#include "reshape/merge.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::pack {
namespace {

corpus::Corpus sample_corpus(std::size_t n = 2000, std::uint64_t seed = 1) {
  Rng rng(seed);
  return corpus::Corpus::generate(corpus::text_400k_sizes(), n, rng);
}

TEST(MergeToUnit, EveryFileInExactlyOneBlock) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  std::set<std::uint64_t> seen;
  for (const Bin& block : merged.blocks) {
    for (const std::uint64_t id : block.item_ids) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), c.file_count());
  EXPECT_EQ(merged.total_volume(), c.total_volume());
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
  EXPECT_THROW((void)derive_multiple(base, 0), Error);
}

TEST(DeriveMultiple, PreservesItemPartition) {
  const corpus::Corpus c = sample_corpus(500, 7);
  const MergedCorpus base = merge_to_unit(c, 200_kB);
  const MergedCorpus m4 = derive_multiple(base, 4);
  std::set<std::uint64_t> seen;
  for (const Bin& block : m4.blocks) {
    for (const std::uint64_t id : block.item_ids) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), c.file_count());
}

TEST(Materialize, ConcatenatesRealBytes) {
  std::vector<corpus::VirtualFile> files;
  std::vector<std::string> texts{"aaa", "bb", "cccc", "d"};
  for (std::uint64_t i = 0; i < texts.size(); ++i) {
    files.push_back(corpus::VirtualFile{i, Bytes(texts[i].size()), 1.0});
  }
  const corpus::Corpus c{std::move(files)};
  const MergedCorpus merged = merge_to_unit(c, Bytes(5));
  const std::vector<std::string> blocks = materialize(merged, texts);
  ASSERT_EQ(blocks.size(), merged.block_count());
  std::size_t total = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].size(), merged.blocks[b].used.count());
    total += blocks[b].size();
  }
  EXPECT_EQ(total, 10u);  // all bytes survive the merge
}

TEST(Materialize, BadIdThrows) {
  MergedCorpus merged;
  merged.unit = Bytes(10);
  Bin bad;
  bad.item_ids.push_back(99);
  merged.blocks.push_back(bad);
  EXPECT_THROW((void)materialize(merged, {"only-one"}), Error);
}

TEST(MergedCorpus, EmptyAccessors) {
  const MergedCorpus empty;
  EXPECT_EQ(empty.block_count(), 0u);
  EXPECT_EQ(empty.total_volume(), 0_B);
  EXPECT_DOUBLE_EQ(empty.fill_factor(), 0.0);
}

TEST(BlockDigests, EveryMergeStampsOnePerBlock) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  ASSERT_EQ(merged.digests.size(), merged.block_count());
  for (std::size_t b = 0; b < merged.block_count(); ++b) {
    EXPECT_EQ(merged.digests[b], block_digest(merged.blocks[b]));
    EXPECT_NE(merged.digests[b], 0u);
  }
}

TEST(BlockDigests, DerivedBlocksGetFreshDigests) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus base = merge_to_unit(c, 500_kB);
  const MergedCorpus doubled = derive_multiple(base, 2);
  ASSERT_EQ(doubled.digests.size(), doubled.block_count());
  for (std::size_t b = 0; b < doubled.block_count(); ++b) {
    EXPECT_EQ(doubled.digests[b], block_digest(doubled.blocks[b]));
  }
}

TEST(BlockDigests, DistinctBlocksDisagree) {
  const corpus::Corpus c = sample_corpus();
  const MergedCorpus merged = merge_to_unit(c, 1_MB);
  ASSERT_GE(merged.block_count(), 2u);
  std::set<std::uint64_t> unique(merged.digests.begin(),
                                 merged.digests.end());
  // FNV-1a over distinct id sets: collisions across a few hundred blocks
  // would indicate a broken update loop, not bad luck.
  EXPECT_EQ(unique.size(), merged.digests.size());
}

TEST(ContentDigests, CatchAFlippedByte) {
  std::vector<corpus::VirtualFile> files;
  std::vector<std::string> texts{"aaa", "bb", "cccc", "d"};
  for (std::uint64_t i = 0; i < texts.size(); ++i) {
    files.push_back(corpus::VirtualFile{i, Bytes(texts[i].size()), 1.0});
  }
  const corpus::Corpus c{std::move(files)};
  const MergedCorpus merged = merge_to_unit(c, Bytes(5));
  std::vector<std::string> blocks = materialize(merged, texts);
  const std::vector<std::uint64_t> expected = content_digests(blocks);
  EXPECT_TRUE(verify_blocks(blocks, expected).empty());

  blocks[1][0] ^= 0x01;  // one silently corrupted bit
  const std::vector<std::size_t> bad = verify_blocks(blocks, expected);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);
}

TEST(ContentDigests, CountMismatchThrows) {
  const std::vector<std::string> blocks{"x", "y"};
  const std::vector<std::uint64_t> expected = content_digests({"x"});
  EXPECT_THROW((void)verify_blocks(blocks, expected), Error);
}

}  // namespace
}  // namespace reshape::pack
