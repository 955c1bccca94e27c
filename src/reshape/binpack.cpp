#include "reshape/binpack.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "reshape/pack_index.hpp"

namespace reshape::pack {

namespace {

/// An empty packing of `bins` bins of `capacity`, ready for one bin index
/// per file.
Packing start(std::span<const corpus::VirtualFile> files, std::size_t bins,
              Bytes capacity) {
  RESHAPE_REQUIRE(files.size() <= kMaxInputs && bins <= kMaxInputs,
                  "the packer's bin index is 32-bit: at most 2^32-1 inputs");
  Packing packing;
  packing.bins.assign(bins, Bin{capacity, Bytes(0)});
  packing.bin_of.reserve(files.size());
  return packing;
}

/// Opens a bin for `size` and returns its index.  Oversize files are
/// unsplittable: they get a bin of their own size.
std::uint32_t open_bin(std::vector<Bin>& bins, Bytes size, Bytes capacity) {
  bins.push_back(Bin{std::max(capacity, size), size});
  return static_cast<std::uint32_t>(bins.size() - 1);
}

// The tournament tree keeps residuals as signed 64-bit; sizes at or above
// 2^63 would alias the closed-slot sentinel range.
constexpr std::uint64_t kMaxResidual =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

std::int64_t signed_size(const corpus::VirtualFile& file) {
  RESHAPE_REQUIRE(file.size.count() <= kMaxResidual,
                  "file size exceeds the packer's 2^63-1 byte limit");
  return static_cast<std::int64_t>(file.size.count());
}

}  // namespace

Packing first_fit(std::span<const corpus::VirtualFile> files, Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  Packing packing = start(files, 0, capacity);
  detail::ResidualTree tree;
  for (const corpus::VirtualFile& file : files) {
    const std::int64_t need = signed_size(file);
    std::size_t at = tree.find_first(need);
    if (at != detail::ResidualTree::npos) {
      packing.bins[at].used += file.size;
      tree.deduct(at, need);
    } else {
      at = open_bin(packing.bins, file.size, capacity);
      tree.push_bin(static_cast<std::int64_t>(packing.bins[at].free().count()));
    }
    packing.bin_of.push_back(static_cast<std::uint32_t>(at));
  }
  return packing;
}

Packing first_fit_reference(std::span<const corpus::VirtualFile> files,
                            Bytes capacity) {
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  Packing packing = start(files, 0, capacity);
  for (const corpus::VirtualFile& file : files) {
    const auto fit = std::find_if(
        packing.bins.begin(), packing.bins.end(),
        [&file](const Bin& bin) { return bin.fits(file.size); });
    std::uint32_t at = 0;
    if (fit != packing.bins.end()) {
      fit->used += file.size;
      at = static_cast<std::uint32_t>(fit - packing.bins.begin());
    } else {
      at = open_bin(packing.bins, file.size, capacity);
    }
    packing.bin_of.push_back(at);
  }
  return packing;
}

Packing pack_into_k(std::span<const corpus::VirtualFile> files, std::size_t k,
                    Bytes capacity) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  RESHAPE_REQUIRE(capacity.count() > 0, "bin capacity must be nonzero");
  Packing packing = start(files, k, capacity);
  detail::ResidualTree tree;
  // A capacity of 2^63 bytes or more clamps to the tree's signed range;
  // that changes no placement while a bin holds less than 2^63-1 bytes.
  const auto residual = static_cast<std::int64_t>(
      std::min(capacity.count(), kMaxResidual));
  for (std::size_t b = 0; b < k; ++b) tree.push_bin(residual);
  for (const corpus::VirtualFile& file : files) {
    const std::int64_t need = signed_size(file);
    std::size_t at = tree.find_first(need);
    if (at == detail::ResidualTree::npos) {
      // Spill to the least-loaded bin; capacity becomes advisory.  Every
      // bin has the same capacity, so that is the leftmost bin holding
      // the largest residual.
      at = tree.find_first(tree.max());
    }
    packing.bins[at].used += file.size;
    packing.bin_of.push_back(static_cast<std::uint32_t>(at));
    tree.deduct(at, need);
  }
  return packing;
}

Packing uniform_bins(std::span<const corpus::VirtualFile> files,
                     std::size_t k) {
  RESHAPE_REQUIRE(k > 0, "need at least one bin");
  Bytes total{0};
  for (const corpus::VirtualFile& file : files) total += file.size;
  RESHAPE_REQUIRE(total.count() <= kMaxResidual,
                  "corpus volume exceeds the packer's 2^63-1 byte limit");
  Packing packing = start(files, k, total);  // capacity is advisory
  // Residual = total - load: the least-loaded bin, lowest index first, is
  // the leftmost bin holding the largest residual.
  detail::ResidualTree tree;
  for (std::size_t b = 0; b < k; ++b) {
    tree.push_bin(static_cast<std::int64_t>(total.count()));
  }
  for (const corpus::VirtualFile& file : files) {
    const std::size_t at = tree.find_first(tree.max());
    packing.bins[at].used += file.size;
    packing.bin_of.push_back(static_cast<std::uint32_t>(at));
    tree.deduct(at, static_cast<std::int64_t>(file.size.count()));
  }
  return packing;
}

}  // namespace reshape::pack
