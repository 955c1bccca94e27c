// Trace determinism under concurrent appends.
//
// The recorder's append order is whatever cross-thread interleaving the
// host scheduler produced, so insertion-order export is not reproducible
// for a parallel run.  The canonical export orders events by content
// instead — these tests pin that independent per-shard simulations
// recording into one recorder from ThreadPool workers export
// byte-identical canonical JSON whether they ran sequentially or in
// parallel, and across repeated parallel runs.
// TraceIndex builds from a content order too, so the profiler pipeline
// inherits the same guarantee; the suite carries the tsan-smoke label so
// a -DRESHAPE_SANITIZE=thread build sweeps the concurrent record path.
//
// Drives a local TraceRecorder (no global recording sites), so it runs
// under -DRESHAPE_OBS=OFF as well.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "obs/profile/trace_index.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace reshape::obs {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Self-feeding per-shard churn that records a span (and every eighth
/// fire an instant) into a shared recorder, stamped in shard sim time.
struct RecordingDriver {
  sim::Simulation& sim;
  TraceRecorder& rec;
  std::uint32_t shard;
  std::uint64_t rng;
  std::uint64_t remaining;
  std::uint64_t fired = 0;

  void spawn() {
    if (remaining == 0) return;
    --remaining;
    const std::uint64_t r = splitmix(rng);
    const double delay = static_cast<double>(r % 10000u) * 1e-3;
    sim.schedule_in(Seconds(delay), [this, r](sim::Simulation& s) {
      const std::uint64_t id = ++fired;
      rec.complete(kPidExecutor, shard, "churn", "attempt",
                   s.now().value(), 1e-3,
                   {arg("unit", std::uint64_t{shard}), arg("seq", id),
                    arg("r", r)});
      if (id % 8 == 0) {
        rec.instant(kPidExecutor, shard, "churn", "tick", s.now().value(),
                    {arg("seq", id)});
      }
      spawn();
    });
  }
};

/// Drains independent shard simulations one after another, or as one
/// ThreadPool task per shard when `pool` is given.
void run_shards(const std::vector<std::unique_ptr<sim::Simulation>>& shards,
                ThreadPool* pool) {
  if (pool != nullptr) {
    pool->parallel_for(shards.size(),
                       [&shards](std::size_t i) { shards[i]->run(); });
  } else {
    for (const auto& shard : shards) shard->run();
  }
}

/// One recording churn driver per shard, eight chains each.
std::vector<std::unique_ptr<RecordingDriver>> seed_drivers(
    const std::vector<std::unique_ptr<sim::Simulation>>& shards,
    TraceRecorder& rec, std::uint64_t seed, std::uint64_t per_shard) {
  std::vector<std::unique_ptr<RecordingDriver>> drivers;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    drivers.push_back(std::make_unique<RecordingDriver>(RecordingDriver{
        *shards[i], rec, static_cast<std::uint32_t>(i), seed + i,
        per_shard}));
    for (int j = 0; j < 8; ++j) drivers.back()->spawn();
  }
  return drivers;
}

std::vector<std::unique_ptr<sim::Simulation>> make_shards(std::size_t n) {
  std::vector<std::unique_ptr<sim::Simulation>> shards;
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<sim::Simulation>());
  }
  return shards;
}

struct Recorded {
  std::string canonical_json;
  std::size_t events = 0;
};

Recorded run_campaign(std::size_t shards, std::uint64_t per_shard,
                      ThreadPool* pool) {
  TraceRecorder rec;
  const auto sims = make_shards(shards);
  const auto drivers = seed_drivers(sims, rec, 1000, per_shard);
  run_shards(sims, pool);
  return Recorded{rec.to_chrome_json(/*canonical=*/true),
                  rec.event_count()};
}

TEST(TraceParallelTest, CanonicalExportMatchesSequentialByteForByte) {
  ThreadPool pool;
  const Recorded seq = run_campaign(8, 4000, nullptr);
  const Recorded par = run_campaign(8, 4000, &pool);
  ASSERT_GT(seq.events, 0u);
  EXPECT_EQ(seq.events, par.events);
  EXPECT_EQ(seq.canonical_json, par.canonical_json);
}

TEST(TraceParallelTest, RepeatedParallelRunsExportIdentically) {
  ThreadPool pool;
  const Recorded a = run_campaign(8, 4000, &pool);
  const Recorded b = run_campaign(8, 4000, &pool);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.canonical_json, b.canonical_json);
}

TEST(TraceParallelTest, IndexIsIdenticalAcrossInterleavings) {
  // TraceIndex sorts by content, so the profiler sees the same tracks,
  // spans and instants no matter which interleaving recorded them.
  ThreadPool pool;
  const auto index_of = [](ThreadPool* p) {
    TraceRecorder rec;
    const auto sims = make_shards(4);
    const auto drivers = seed_drivers(sims, rec, 7, 2000);
    run_shards(sims, p);
    return profile::TraceIndex::from_recorder(rec);
  };
  const profile::TraceIndex seq = index_of(nullptr);
  const profile::TraceIndex par = index_of(&pool);
  EXPECT_EQ(seq.span_count(), par.span_count());
  EXPECT_EQ(seq.instant_count(), par.instant_count());
  ASSERT_EQ(seq.tracks().size(), par.tracks().size());
  for (std::size_t t = 0; t < seq.tracks().size(); ++t) {
    const profile::Track& a = seq.tracks()[t];
    const profile::Track& b = par.tracks()[t];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].start_us, b.spans[i].start_us);
      EXPECT_EQ(a.spans[i].name, b.spans[i].name);
      EXPECT_EQ(a.spans[i].parent, b.spans[i].parent);
    }
  }
}

TEST(TraceParallelTest, WallTidsAreStablePerThreadAndDistinctAcross) {
  // The wall-clock domain maps each host thread to one small tid: every
  // span a thread records lands on the same track, and concurrent
  // threads never share one.
  TraceRecorder rec;
  rec.set_wall_capture(true);
  const auto record_two = [&rec] {
    const auto t0 = std::chrono::steady_clock::now();
    rec.wall_complete("wall", "a", t0, t0 + std::chrono::microseconds(1));
    rec.wall_complete("wall", "b", t0 + std::chrono::microseconds(2),
                      t0 + std::chrono::microseconds(3));
  };
  record_two();  // main thread
  std::thread t1(record_two);
  std::thread t2(record_two);
  t1.join();
  t2.join();
  rec.set_wall_capture(false);

  std::map<std::uint32_t, std::size_t> spans_per_tid;
  for (const TraceEvent& e : rec.snapshot()) {
    ASSERT_EQ(e.ph, 'X');
    ASSERT_EQ(e.pid, kPidWall);
    ++spans_per_tid[e.tid];
  }
  // Three threads, two spans each, tids assigned densely from 1.
  ASSERT_EQ(spans_per_tid.size(), 3u);
  for (const auto& [tid, count] : spans_per_tid) {
    EXPECT_GE(tid, 1u);
    EXPECT_LE(tid, 3u);
    EXPECT_EQ(count, 2u) << "tid " << tid;
  }
}

}  // namespace
}  // namespace reshape::obs
