// Differential replay suite for the event engines.
//
// Seeded random-op campaigns (schedule/cancel churn with nested
// scheduling) drive the ladder engine and the retained seed engine
// (SimulationReference, the one ordering oracle) through identical
// workloads; the observed fire traces must match element-for-element.
// A million-event equal-timestamp campaign additionally pins the stable
// FIFO tiebreak across ladder re-spans and spawn-blocked giant buckets.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/simulation.hpp"
#include "sim/simulation_reference.hpp"

namespace reshape::sim {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One fire observation: which logical event ran, and when.
struct Fire {
  std::uint64_t id = 0;
  double at = 0.0;
  bool operator==(const Fire&) const = default;
};

/// Drives one engine through the seeded campaign and records the trace.
/// Sim is any engine with schedule_in/cancel/run; Handle its handle type.
template <typename Sim, typename Handle>
std::vector<Fire> campaign(Sim& sim, std::uint64_t seed,
                           std::uint64_t events) {
  struct Driver {
    Sim& sim;
    std::uint64_t rng;
    std::uint64_t remaining;
    std::uint64_t next_id = 0;
    std::vector<Fire> trace;
    std::vector<Handle> window;

    void spawn() {
      if (remaining == 0) return;
      --remaining;
      const std::uint64_t id = ++next_id;
      const std::uint64_t r = splitmix(rng);
      // Delays spanning several orders of magnitude, plus a slice of
      // exact zero delays (same-timestamp arrivals) and repeated exact
      // values (equal-timestamp ties across distinct events).
      double delay;
      switch (r & 7u) {
        case 0: delay = 0.0; break;
        case 1: delay = 1.0; break;
        default:
          delay = static_cast<double>(r % 100000u) * 1e-3;
          break;
      }
      const Handle h = sim.schedule_in(
          Seconds(delay), [this, id](auto& s) { fired(id, s.now()); });
      if ((r & 3u) == 0) window.push_back(h);
    }

    void fired(std::uint64_t id, Seconds at) {
      trace.push_back(Fire{id, at.value()});
      const std::uint64_t r = splitmix(rng);
      spawn();
      if ((r & 15u) == 0) spawn();  // occasional fan-out
      if ((r & 7u) == 0 && !window.empty()) {
        const std::size_t pick =
            static_cast<std::size_t>((r >> 8) % window.size());
        const bool hit = sim.cancel(window[pick]);
        // Cancel outcomes are part of the differential contract too.
        trace.push_back(Fire{hit ? ~0ull : ~1ull, 0.0});
        window[pick] = window.back();
        window.pop_back();
      }
    }
  };

  Driver d{sim, seed, events, 0, {}, {}};
  for (int i = 0; i < 64; ++i) d.spawn();
  sim.run();
  return d.trace;
}

TEST(SimDifferential, RandomOpCampaignsMatchTheSeedEngine) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    Simulation ladder;
    SimulationReference seed_engine;

    const auto t_ladder =
        campaign<Simulation, EventHandle>(ladder, seed, 30000);
    const auto t_seed = campaign<SimulationReference, ReferenceEventHandle>(
        seed_engine, seed, 30000);

    ASSERT_GT(t_ladder.size(), 30000u);
    EXPECT_EQ(t_ladder, t_seed) << "ladder vs seed engine, seed " << seed;
    // Drained engines agree on the clock too.
    EXPECT_DOUBLE_EQ(ladder.now().value(), seed_engine.now().value());
  }
}

// A million events at one timestamp: the re-span collapses the whole
// range into one bucket whose width bottoms out at kMinWidth, so rung
// spawning is blocked and the ladder must consume a giant heap-ordered
// bucket — in exact scheduling order.  Mid-run same-timestamp arrivals
// (scheduled from the first callback) must queue behind every earlier
// event at that timestamp.
TEST(SimDifferential, MillionEqualTimestampsFireInScheduleOrder) {
  constexpr std::uint32_t kSeeded = 1000000;
  constexpr std::uint32_t kLate = 1000;

  Simulation s;
  s.reserve(kSeeded + kLate);
  std::vector<std::uint32_t> order;
  order.reserve(kSeeded + kLate);

  s.schedule_at(Seconds(1.0), [&order](Simulation& sim) {
    order.push_back(0);
    for (std::uint32_t i = 0; i < kLate; ++i) {
      sim.schedule_at(Seconds(1.0), [&order, i](Simulation&) {
        order.push_back(kSeeded + i);
      });
    }
  });
  for (std::uint32_t i = 1; i < kSeeded; ++i) {
    s.schedule_at(Seconds(1.0),
                  [&order, i](Simulation&) { order.push_back(i); });
  }

  EXPECT_EQ(s.run(), static_cast<std::size_t>(kSeeded + kLate));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kSeeded + kLate));
  for (std::uint32_t i = 0; i < kSeeded + kLate; ++i) {
    ASSERT_EQ(order[i], i) << "FIFO violated at position " << i;
  }
  EXPECT_DOUBLE_EQ(s.now().value(), 1.0);
}

// Time must never run backwards while draining a skewed distribution
// that exercises re-spans and rung spawns (log-uniform delays).
TEST(SimDifferential, ClockMonotoneThroughRespansAndSpawns) {
  Simulation s;
  std::uint64_t rng = 99;
  std::uint64_t remaining = 200000;
  double last = -1.0;
  bool monotone = true;

  struct Feeder {
    Simulation& sim;
    std::uint64_t& rng;
    std::uint64_t& remaining;
    double& last;
    bool& monotone;
    void operator()(Simulation& inner) const {
      if (inner.now().value() < last) monotone = false;
      last = inner.now().value();
      if (remaining == 0) return;
      --remaining;
      const std::uint64_t r = splitmix(rng);
      const std::uint64_t exp_bits = 1023u - 13u + (r >> 60);
      const double delay =
          std::bit_cast<double>((exp_bits << 52) | ((r & 0xffffu) << 36));
      inner.schedule_in(Seconds(delay),
                        Feeder{sim, rng, remaining, last, monotone});
    }
  };

  for (int i = 0; i < 512; ++i) {
    s.schedule_at(Seconds(0.0), Feeder{s, rng, remaining, last, monotone});
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.pending(), 0u);
}

}  // namespace
}  // namespace reshape::sim
