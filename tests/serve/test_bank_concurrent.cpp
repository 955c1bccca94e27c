// Concurrent probe ingestion: the ThroughputBank-backed model store under
// multi-threaded observe() — no torn fits, no lost observations, and a
// final refit that is bit-identical no matter how the threads interleave.
// Labeled tsan-smoke: this is the suite a -DRESHAPE_SANITIZE=thread build
// sweeps for the planning service.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "model/predictor.hpp"
#include "serve/model_store.hpp"

namespace reshape::serve {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kPerThread = 64;

model::Predictor prior_fit() {
  model::AffineFit fit;
  fit.intercept = 5.0;
  fit.slope = 1e-7;
  return model::Predictor(fit);
}

/// The observation thread `t`, draw `i` banks: distinct per (t, i) so a
/// lost or duplicated ingest changes the multiset (and thus the fit).
Bytes volume_of(std::size_t t, std::size_t i) {
  return Bytes(((t * kPerThread + i) + 1) << 20);
}
Seconds elapsed_of(std::size_t t, std::size_t i) {
  return Seconds(2.0 + 0.11 * static_cast<double>(t * kPerThread + i));
}

TEST(ThroughputBankAccessors, ExposeObservationsInIngestOrder) {
  model::ThroughputBank bank;
  bank.observe(Bytes(2u << 20), Seconds(3.0));
  bank.observe(Bytes(0), Seconds(1.0));        // no signal: skipped
  bank.observe(Bytes(1u << 20), Seconds(0.0));  // no signal: skipped
  bank.observe(Bytes(1u << 20), Seconds(2.0));

  ASSERT_EQ(bank.count(), 2u);
  EXPECT_DOUBLE_EQ(bank.volumes()[0], static_cast<double>(2u << 20));
  EXPECT_DOUBLE_EQ(bank.volumes()[1], static_cast<double>(1u << 20));
  EXPECT_DOUBLE_EQ(bank.times()[0], 3.0);
  EXPECT_DOUBLE_EQ(bank.times()[1], 2.0);
}

TEST(ConcurrentIngest, NoTornFitsAndNoLostObservations) {
  ShardedModelStore store(8);
  const ModelKeyView key{"grep", "v1"};
  store.seed(key, prior_fit());

  // Readers race the writers: every snapshot they see must be internally
  // consistent (epoch == observations + 1 is this store's invariant: one
  // epoch for the seed, one per accepted observation).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = store.snapshot(key);
      if (snap == nullptr || snap->epoch != snap->observations + 1) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        (void)store.observe(key, volume_of(t, i), elapsed_of(t, i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  const auto final_snap = store.snapshot(key);
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->observations, kThreads * kPerThread);
  EXPECT_EQ(final_snap->epoch, kThreads * kPerThread + 1);
}

TEST(ConcurrentIngest, FinalRefitIsDeterministicAcrossInterleavings) {
  // Sequential reference: the same multiset ingested by one thread.
  ShardedModelStore reference(8);
  const ModelKeyView key{"grep", "v1"};
  reference.seed(key, prior_fit());
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      (void)reference.observe(key, volume_of(t, i), elapsed_of(t, i));
    }
  }
  const auto expect = reference.snapshot(key);

  // Two independent concurrent runs: whatever interleaving the scheduler
  // produces, the published fit must equal the reference bit for bit.
  for (int run = 0; run < 2; ++run) {
    ShardedModelStore store(8);
    store.seed(key, prior_fit());
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          (void)store.observe(key, volume_of(t, i), elapsed_of(t, i));
        }
      });
    }
    for (std::thread& w : writers) w.join();

    const auto snap = store.snapshot(key);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch, expect->epoch);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap->predictor.affine().slope),
              std::bit_cast<std::uint64_t>(expect->predictor.affine().slope));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(snap->predictor.affine().intercept),
        std::bit_cast<std::uint64_t>(expect->predictor.affine().intercept));
  }
}

TEST(ConcurrentIngest, DisjointKeysNeverInterfere) {
  ShardedModelStore store(4);
  std::vector<std::string> apps;
  for (std::size_t t = 0; t < kThreads; ++t) {
    apps.push_back("tenant-" + std::to_string(t));
    store.seed(ModelKeyView{apps.back(), "v1"}, prior_fit());
  }

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const ModelKeyView key{apps[t], "v1"};
      for (std::size_t i = 0; i < kPerThread; ++i) {
        (void)store.observe(key, volume_of(t, i), elapsed_of(t, i));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto snap = store.snapshot(ModelKeyView{apps[t], "v1"});
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->observations, kPerThread);
    EXPECT_EQ(snap->epoch, kPerThread + 1);
  }
  EXPECT_EQ(store.size(), kThreads);
}

}  // namespace
}  // namespace reshape::serve
