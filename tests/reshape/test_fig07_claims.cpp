// Fig. 7's claims, asserted rather than pinned as golden bytes: for the
// memory-bound POS tagger the original segmentation beats every merged
// probe, and the merged probes come from the §4 shortcut, so the probe at
// m * s0 holds ceil(n / m) blocks of the n-block s0 merge.  Same seeds and
// setup as bench/fig07_pos_1000kb.

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_util.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "reshape/probe.hpp"

namespace reshape::bench {
namespace {

TEST(Fig07Claims, OriginalLayoutBeatsEveryMergedProbe) {
  const Rng root(307);
  sim::Simulation sim;
  cloud::CloudProvider ec2(sim, root.split("cloud"), cloud::ProviderConfig{});
  const auto acq =
      ec2.acquire_screened(cloud::InstanceType::kSmall, kZone);

  Rng corpus_rng = root.split("corpus");
  const corpus::Corpus corpus = corpus::Corpus::generate(
      corpus::text_400k_sizes(), 20'000, corpus_rng);
  const Bytes head_max = corpus.take_volume(1000_kB).max_file_size();
  const Bytes s0 = std::max(Bytes(head_max.count() + 1), 20_kB);
  const std::vector<std::uint64_t> multiples{2, 5, 10, 20};
  const pack::ProbeSet probes =
      pack::build_probe_set(corpus, 1000_kB, s0, multiples);

  // orig, s0, then one probe per multiple.
  ASSERT_EQ(probes.probes.size(), 2 + multiples.size());
  EXPECT_TRUE(probes.probes[0].original);
  const std::uint64_t base_blocks = probes.probes[1].file_count;
  EXPECT_EQ(base_blocks, 8u);
  std::vector<std::uint64_t> counts;
  for (std::size_t k = 0; k < multiples.size(); ++k) {
    const std::uint64_t m = multiples[k];
    EXPECT_EQ(probes.probes[2 + k].file_count, (base_blocks + m - 1) / m)
        << "m = " << m;
    counts.push_back(probes.probes[2 + k].file_count);
  }
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{4, 2, 1, 1}));

  const cloud::AppCostProfile pos = cloud::pos_profile();
  Rng noise = root.split("noise");
  double t_orig = 0.0;
  std::vector<double> merged;
  for (const pack::ProbeSpec& p : probes.probes) {
    const cloud::DataLayout layout =
        p.original
            ? cloud::DataLayout::original(p.volume, p.file_count, p.unit)
            : cloud::DataLayout::reshaped(p.volume, p.unit);
    const double mean = measure5(pos, layout, ec2.instance(acq.id),
                                 cloud::LocalStorage{}, noise)
                            .mean;
    if (p.original) {
      t_orig = mean;
    } else {
      merged.push_back(mean);
    }
  }
  ASSERT_EQ(merged.size(), 1 + multiples.size());
  for (const double t : merged) EXPECT_LT(t_orig, t);
}

}  // namespace
}  // namespace reshape::bench
