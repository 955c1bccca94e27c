// Merging corpora into unit-sized blocks, and the probe-set construction
// procedure of §4.
//
// merge_to_unit() is the one reshaping path: subset-sum first-fit over the
// corpus, in file order, at the desired unit size, producing a
// MergedCorpus whose blocks are the application's new input files (no
// application change needed — text concatenates).  derive_multiple()
// implements the paper's shortcut: probes at s_k = m * s0 are built by
// concatenating m existing s0 blocks instead of re-running the packer
// ("convenient since we avoid rerunning the first fit bin packing
// algorithm, but can be sensitive to the quality of the original bins").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "corpus/corpus.hpp"
#include "reshape/binpack.hpp"

namespace reshape::pack {

/// A corpus reshaped into unit-sized blocks.
struct MergedCorpus {
  Bytes unit{0};
  std::vector<Bin> blocks;
  /// Per-block 64-bit structural digests (`digests[i]` covers
  /// `blocks[i]`): FNV-1a over the block's member file ids and its used
  /// size, stamped by merge_to_unit and derive_multiple.  Same logical
  /// block => same digest.  Nothing downstream reads them: simulated
  /// transfers model the digest check through their `verify_integrity`
  /// flag (cloud/transfer), not by comparing these values.
  std::vector<std::uint64_t> digests;

  [[nodiscard]] std::size_t block_count() const { return blocks.size(); }
  [[nodiscard]] Bytes total_volume() const;
  [[nodiscard]] Bytes largest_block() const;
  /// Mean fill of blocks relative to the unit size.
  [[nodiscard]] double fill_factor() const;
};

/// Structural digest of one packed block: FNV-1a over the member file ids
/// (in block order) and the used byte count.
[[nodiscard]] std::uint64_t block_digest(const Bin& bin);

/// Content digests of materialized blocks (FNV-1a over the raw bytes).
[[nodiscard]] std::vector<std::uint64_t> content_digests(
    const std::vector<std::string>& blocks);

/// Verifies materialized blocks against expected content digests; returns
/// the indices that mismatch (empty means intact).  Throws if the counts
/// differ.
[[nodiscard]] std::vector<std::size_t> verify_blocks(
    const std::vector<std::string>& blocks,
    const std::vector<std::uint64_t>& expected);

/// Reshapes `corpus` into blocks of at most `unit` bytes via subset-sum
/// first-fit in file order.  Every file appears in exactly one block.
[[nodiscard]] MergedCorpus merge_to_unit(const corpus::Corpus& corpus,
                                         Bytes unit);

/// Derives the merge at m * unit by concatenating consecutive groups of m
/// blocks (the §4 shortcut).
[[nodiscard]] MergedCorpus derive_multiple(const MergedCorpus& base,
                                           std::uint64_t m);

/// Concatenates real file contents according to a merged corpus's blocks.
/// `texts[i]` is the content of the file with id i; block order follows
/// the merge.  Used where real bytes matter (profiler, examples).
[[nodiscard]] std::vector<std::string> materialize(
    const MergedCorpus& merged, const std::vector<std::string>& texts);

}  // namespace reshape::pack
