// ShardedModelStore: seeding, wait-free snapshots, epoch stamping, and
// the determinism contract — a refit is a pure function of the
// observation multiset, never of ingest interleaving.
#include "serve/model_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/model_key.hpp"

namespace reshape::serve {
namespace {

model::Predictor prior_fit(double intercept, double slope) {
  model::AffineFit fit;
  fit.intercept = intercept;
  fit.slope = slope;
  return model::Predictor(fit);
}

const ModelKeyView kKey{"grep", "f11:s20:c4"};

TEST(ShardedModelStore, UnknownKeyHasNoSnapshotAndEpochZero) {
  ShardedModelStore store;
  EXPECT_EQ(store.snapshot(kKey), nullptr);
  EXPECT_EQ(store.epoch(kKey), 0u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ShardedModelStore, SeedPublishesThePriorAtEpochOne) {
  ShardedModelStore store;
  const model::Predictor prior = prior_fit(5.0, 1e-7);
  store.seed(kKey, prior);

  const auto snap = store.snapshot(kKey);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->observations, 0u);
  EXPECT_DOUBLE_EQ(snap->predictor.affine().intercept, 5.0);
  EXPECT_DOUBLE_EQ(snap->predictor.affine().slope, 1e-7);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ShardedModelStore, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(ShardedModelStore(1).shard_count(), 1u);
  EXPECT_EQ(ShardedModelStore(5).shard_count(), 8u);
  EXPECT_EQ(ShardedModelStore(16).shard_count(), 16u);
}

TEST(ShardedModelStore, ObserveUnseededKeyThrows) {
  ShardedModelStore store;
  EXPECT_THROW(store.observe(kKey, Bytes(1024), Seconds(1.0)), Error);
}

TEST(ShardedModelStore, EachAcceptedObservationBumpsTheEpoch) {
  ShardedModelStore store;
  store.seed(kKey, prior_fit(5.0, 1e-7));
  EXPECT_EQ(store.observe(kKey, Bytes(1u << 20), Seconds(2.0)), 2u);
  EXPECT_EQ(store.observe(kKey, Bytes(2u << 20), Seconds(3.0)), 3u);
  EXPECT_EQ(store.epoch(kKey), 3u);
  EXPECT_EQ(store.snapshot(kKey)->observations, 2u);
}

TEST(ShardedModelStore, NoSignalObservationsInvalidateNothing) {
  ShardedModelStore store;
  store.seed(kKey, prior_fit(5.0, 1e-7));
  // ThroughputBank's own rule: zero volume or non-positive time carries
  // no signal, so the epoch — the invalidation currency — must not move.
  EXPECT_EQ(store.observe(kKey, Bytes(0), Seconds(1.0)), 1u);
  EXPECT_EQ(store.observe(kKey, Bytes(1024), Seconds(0.0)), 1u);
  EXPECT_EQ(store.observe(kKey, Bytes(1024), Seconds(-1.0)), 1u);
  EXPECT_EQ(store.epoch(kKey), 1u);
  EXPECT_EQ(store.snapshot(kKey)->observations, 0u);
}

TEST(ShardedModelStore, BelowTheEvidenceFloorThePriorStands) {
  ShardedModelStore store(16);
  const model::Predictor prior = prior_fit(7.0, 2e-7);
  store.seed(kKey, prior);
  (void)store.observe(kKey, Bytes(1u << 20), Seconds(2.0));
  (void)store.observe(kKey, Bytes(4u << 20), Seconds(5.0));

  const auto snap = store.snapshot(kKey);
  EXPECT_EQ(snap->epoch, 3u);  // epoch moved (plans must replan) ...
  // ... but with only 2 observations the published fit is still the prior.
  EXPECT_DOUBLE_EQ(snap->predictor.affine().intercept, 7.0);
  EXPECT_DOUBLE_EQ(snap->predictor.affine().slope, 2e-7);
}

TEST(ShardedModelStore, RefitIsAPureFunctionOfTheObservationMultiset) {
  const std::vector<std::pair<std::uint64_t, double>> obs = {
      {10u << 20, 3.0}, {50u << 20, 11.0}, {20u << 20, 5.5},
      {80u << 20, 17.0}, {5u << 20, 2.2},
  };

  ShardedModelStore forward, reverse;
  const model::Predictor prior = prior_fit(1.0, 1e-7);
  forward.seed(kKey, prior);
  reverse.seed(kKey, prior);
  for (const auto& [v, t] : obs) {
    (void)forward.observe(kKey, Bytes(v), Seconds(t));
  }
  for (auto it = obs.rbegin(); it != obs.rend(); ++it) {
    (void)reverse.observe(kKey, Bytes(it->first), Seconds(it->second));
  }

  const auto a = forward.snapshot(kKey);
  const auto b = reverse.snapshot(kKey);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->epoch, b->epoch);
  // Bit-for-bit: the sorted replay makes the OLS summation order — and
  // therefore the fit — independent of ingest order.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a->predictor.affine().intercept),
            std::bit_cast<std::uint64_t>(b->predictor.affine().intercept));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a->predictor.affine().slope),
            std::bit_cast<std::uint64_t>(b->predictor.affine().slope));
  // And the refit actually happened (5 observations > floor of 3).
  EXPECT_NE(std::bit_cast<std::uint64_t>(a->predictor.affine().slope),
            std::bit_cast<std::uint64_t>(prior.affine().slope));
}

TEST(ShardedModelStore, ReseedDropsObservationsAndKillsOldPlans) {
  ShardedModelStore store;
  store.seed(kKey, prior_fit(5.0, 1e-7));
  (void)store.observe(kKey, Bytes(1u << 20), Seconds(2.0));
  (void)store.observe(kKey, Bytes(2u << 20), Seconds(3.0));
  ASSERT_EQ(store.epoch(kKey), 3u);

  store.seed(kKey, prior_fit(9.0, 3e-7));
  const auto snap = store.snapshot(kKey);
  EXPECT_EQ(snap->epoch, 4u);  // strictly newer: cached plans die
  EXPECT_EQ(snap->observations, 0u);
  EXPECT_DOUBLE_EQ(snap->predictor.affine().intercept, 9.0);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ShardedModelStore, HeterogeneousLookupFindsOwnedKeys) {
  ShardedModelStore store;
  store.seed(ModelKeyView{"pos-tag", "f9:s18:c4"}, prior_fit(2.0, 4e-8));

  // Query with views borrowed from a larger buffer — the hot path never
  // builds a std::string.
  const std::string blob = "xxpos-tagyyf9:s18:c4zz";
  const ModelKeyView borrowed{std::string_view(blob).substr(2, 7),
                              std::string_view(blob).substr(11, 9)};
  const auto snap = store.snapshot(borrowed);
  ASSERT_NE(snap, nullptr);
  EXPECT_DOUBLE_EQ(snap->predictor.affine().intercept, 2.0);

  // "ab"/"c" vs "a"/"bc": the separator keeps concatenations distinct.
  store.seed(ModelKeyView{"ab", "c"}, prior_fit(1.0, 1e-9));
  EXPECT_EQ(store.snapshot(ModelKeyView{"a", "bc"}), nullptr);
  EXPECT_NE(store.snapshot(ModelKeyView{"ab", "c"}), nullptr);
}

TEST(ShardedModelStore, KeysAreIndependent) {
  ShardedModelStore store(4);
  const ModelKeyView other{"grep", "f20:s20:c4"};
  store.seed(kKey, prior_fit(5.0, 1e-7));
  store.seed(other, prior_fit(6.0, 2e-7));
  for (int i = 1; i <= 4; ++i) {
    (void)store.observe(kKey, Bytes(static_cast<std::uint64_t>(i) << 20),
                        Seconds(1.0 + i));
  }
  EXPECT_EQ(store.epoch(kKey), 5u);
  EXPECT_EQ(store.epoch(other), 1u);  // untouched neighbor keeps its epoch
  EXPECT_EQ(store.size(), 2u);
}

TEST(CorpusShapeSignature, DeterministicAndShapeSensitive) {
  std::vector<corpus::VirtualFile> small_files;
  for (std::uint64_t i = 0; i < 100; ++i) {
    small_files.push_back(corpus::VirtualFile{i, Bytes(64 * 1024), 1.0});
  }
  const corpus::Corpus small(small_files);
  std::vector<corpus::VirtualFile> big_files;
  for (std::uint64_t i = 0; i < 100; ++i) {
    big_files.push_back(corpus::VirtualFile{i, Bytes(64u << 20), 1.0});
  }
  const corpus::Corpus big(big_files);

  EXPECT_EQ(corpus_shape_signature(small), corpus_shape_signature(small));
  EXPECT_NE(corpus_shape_signature(small), corpus_shape_signature(big));
}

}  // namespace
}  // namespace reshape::serve
