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
  /// `bin_of[i]` is the block that holds the corpus's i-th file.
  std::vector<std::uint32_t> bin_of;

  [[nodiscard]] std::size_t block_count() const { return blocks.size(); }
  [[nodiscard]] Bytes total_volume() const;
  [[nodiscard]] Bytes largest_block() const;
  /// Packed volume over the blocks' summed capacities (an oversize
  /// single-file block's capacity is its own size), so at most 1.
  [[nodiscard]] double fill_factor() const;
};

/// Reshapes `corpus` into blocks of at most `unit` bytes via subset-sum
/// first-fit in file order.  Every file appears in exactly one block.
[[nodiscard]] MergedCorpus merge_to_unit(const corpus::Corpus& corpus,
                                         Bytes unit);

/// Derives the merge at m * unit by concatenating consecutive groups of m
/// blocks (the §4 shortcut): block b of `base` becomes block b / m.
[[nodiscard]] MergedCorpus derive_multiple(const MergedCorpus& base,
                                           std::uint64_t m);

/// Concatenates real file contents according to a merged corpus's blocks.
/// `texts[i]` is the content of the corpus's i-th file; block order
/// follows the merge, and each block holds its files in corpus order.
/// Used where real bytes matter (profiler, examples).
[[nodiscard]] std::vector<std::string> materialize(
    const MergedCorpus& merged, const std::vector<std::string>& texts);

}  // namespace reshape::pack
