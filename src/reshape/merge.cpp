#include "reshape/merge.hpp"

#include <algorithm>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::pack {

namespace {
void stamp_digests(MergedCorpus& merged) {
  merged.digests.clear();
  merged.digests.reserve(merged.blocks.size());
  for (const Bin& bin : merged.blocks) {
    merged.digests.push_back(block_digest(bin));
  }
}

/// Packing-quality tallies for one finished merge.
void record_merge_metrics(const MergedCorpus& merged) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("binpack.bins").add(merged.blocks.size());
  m.gauge("binpack.fill_factor").set(merged.fill_factor());
  auto& fill = m.histogram("binpack.block_fill",
                           {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0});
  const double unit = merged.unit.as_double();
  if (unit > 0.0) {
    for (const Bin& bin : merged.blocks) {
      fill.observe(bin.used.as_double() / unit);
    }
  }
}
}  // namespace

std::uint64_t block_digest(const Bin& bin) {
  Digest64 d;
  for (const std::uint64_t id : bin.item_ids) d.update_u64(id);
  d.update_u64(bin.used.count());
  return d.value();
}

std::vector<std::uint64_t> content_digests(
    const std::vector<std::string>& blocks) {
  std::vector<std::uint64_t> digests;
  digests.reserve(blocks.size());
  for (const std::string& block : blocks) {
    digests.push_back(digest_bytes(block));
  }
  return digests;
}

std::vector<std::size_t> verify_blocks(
    const std::vector<std::string>& blocks,
    const std::vector<std::uint64_t>& expected) {
  RESHAPE_REQUIRE(blocks.size() == expected.size(),
                  "digest count does not match block count");
  std::vector<std::size_t> mismatched;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (digest_bytes(blocks[i]) != expected[i]) mismatched.push_back(i);
  }
  return mismatched;
}

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
  if (blocks.empty() || unit.count() == 0) return 0.0;
  return total_volume().as_double() /
         (static_cast<double>(blocks.size()) * unit.as_double());
}

MergedCorpus merge_to_unit(const corpus::Corpus& corpus, Bytes unit) {
  const obs::WallSpan span("reshape", "merge_sequential");
  std::vector<Item> items;
  items.reserve(corpus.file_count());
  for (const corpus::VirtualFile& f : corpus.files()) {
    items.push_back(Item{f.id, f.size});
  }
  MergedCorpus merged;
  merged.unit = unit;
  merged.blocks = first_fit(items, unit);
  stamp_digests(merged);
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
    combined.capacity = merged.unit;
    const std::size_t end = std::min(i + m, base.blocks.size());
    for (std::size_t j = i; j < end; ++j) {
      combined.used += base.blocks[j].used;
      combined.item_ids.insert(combined.item_ids.end(),
                               base.blocks[j].item_ids.begin(),
                               base.blocks[j].item_ids.end());
    }
    merged.blocks.push_back(std::move(combined));
  }
  stamp_digests(merged);
  return merged;
}

std::vector<std::string> materialize(const MergedCorpus& merged,
                                     const std::vector<std::string>& texts) {
  std::vector<std::string> blocks;
  blocks.reserve(merged.blocks.size());
  for (const Bin& bin : merged.blocks) {
    std::string content;
    for (const std::uint64_t id : bin.item_ids) {
      RESHAPE_REQUIRE(id < texts.size(), "file id outside texts");
      content += texts[id];
    }
    blocks.push_back(std::move(content));
  }
  return blocks;
}

}  // namespace reshape::pack
