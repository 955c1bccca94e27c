#include "reshape/merge.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::pack {

namespace {
/// Packing-quality tallies for one finished merge.
void record_merge_metrics(const MergedCorpus& merged) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("binpack.bins").add(merged.blocks.size());
  m.gauge("binpack.fill_factor").set(merged.fill_factor());
  auto& fill = m.histogram("binpack.block_fill",
                           {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0});
  for (const Bin& bin : merged.blocks) {
    fill.observe(bin.used.as_double() / bin.capacity.as_double());
  }
}
}  // namespace

Bytes MergedCorpus::total_volume() const {
  Bytes total{0};
  for (const Bin& b : blocks) total += b.used;
  return total;
}

Bytes MergedCorpus::largest_block() const {
  Bytes largest{0};
  for (const Bin& b : blocks) largest = std::max(largest, b.used);
  return largest;
}

double MergedCorpus::fill_factor() const {
  Bytes capacity{0};
  for (const Bin& b : blocks) capacity += b.capacity;
  if (capacity.count() == 0) return 0.0;
  return total_volume().as_double() / capacity.as_double();
}

MergedCorpus merge_to_unit(const corpus::Corpus& corpus, Bytes unit) {
  const obs::WallSpan span("reshape", "merge_sequential");
  Packing packing = first_fit(corpus.files(), unit);
  MergedCorpus merged{unit, std::move(packing.bins),
                      std::move(packing.bin_of)};
  record_merge_metrics(merged);
  return merged;
}

MergedCorpus derive_multiple(const MergedCorpus& base, std::uint64_t m) {
  RESHAPE_REQUIRE(m >= 1, "multiple must be at least 1");
  if (m == 1) return base;
  MergedCorpus merged;
  merged.unit = base.unit * m;
  for (std::size_t i = 0; i < base.blocks.size(); i += m) {
    Bin combined;
    const std::size_t end = std::min(i + m, base.blocks.size());
    for (std::size_t j = i; j < end; ++j) {
      combined.used += base.blocks[j].used;
      combined.capacity += base.blocks[j].capacity;
    }
    // A group holding oversize blocks keeps their summed capacity.
    combined.capacity = std::max(combined.capacity, merged.unit);
    merged.blocks.push_back(combined);
  }
  merged.bin_of.reserve(base.bin_of.size());
  for (const std::uint32_t b : base.bin_of) {
    merged.bin_of.push_back(static_cast<std::uint32_t>(b / m));
  }
  return merged;
}

std::vector<std::string> materialize(const MergedCorpus& merged,
                                     const std::vector<std::string>& texts) {
  RESHAPE_REQUIRE(texts.size() == merged.bin_of.size(),
                  "need one text per merged file");
  std::vector<std::string> blocks(merged.blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].reserve(merged.blocks[b].used.count());
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const std::uint32_t b = merged.bin_of[i];
    RESHAPE_REQUIRE(b < blocks.size(), "file assigned to a missing block");
    blocks[b] += texts[i];
  }
  return blocks;
}

}  // namespace reshape::pack
