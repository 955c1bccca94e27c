// Fault-storm replay: the determinism gate for the event engine under a
// full cloud workload.
//
// A seeded lifecycle campaign (staggered launches under an aggressive
// fault model, guarded terminates racing crashes) must reproduce a
// recorded event count and fingerprint, and replay identically run after
// run.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cloud/provider.hpp"
#include "common/units.hpp"
#include "sim/simulation.hpp"

namespace reshape::cloud {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 1099511628211ULL;
  return h ^ (h >> 32);
}

ProviderConfig storm_config() {
  ProviderConfig cfg;
  cfg.faults.p_boot_failure = 0.06;
  cfg.faults.crash_rate_per_hour = 0.35;
  cfg.faults.spot_interruption_rate_per_hour = 0.10;
  return cfg;
}

/// Launches `fleet` instances into `sim` on a staggered schedule; every
/// boot survivor arms a guarded terminate that may lose to a crash.
void drive_storm(sim::Simulation& sim, CloudProvider& provider,
                 std::uint64_t fleet, std::uint64_t seed) {
  const AvailabilityZone az{};
  std::uint64_t rng = seed;
  for (std::uint64_t i = 0; i < fleet; ++i) {
    const std::uint64_t r = splitmix(rng);
    const Seconds at(static_cast<double>(i) * 1.5);
    const Seconds lifetime(600.0 + static_cast<double>(r % 7200u));
    sim.schedule_at(at, [&provider, az, lifetime](sim::Simulation&) {
      provider.launch(InstanceType::kSmall, az,
                      [&provider, lifetime](Instance& inst) {
                        const InstanceId id = inst.id();
                        provider.sim().schedule_in(
                            lifetime, [&provider, id](sim::Simulation&) {
                              if (provider.instance(id).is_running()) {
                                provider.terminate(id);
                              }
                            });
                      });
    });
  }
}

/// Folds every instance's terminal state, billed running time, the fleet
/// failure totals and the final clock into one order-sensitive hash.
std::uint64_t storm_fingerprint(const sim::Simulation& sim,
                                const CloudProvider& provider) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint64_t id = 1; id <= provider.launches(); ++id) {
    const Instance& inst = provider.instance(InstanceId{id});
    h = mix(h, static_cast<std::uint64_t>(inst.state()));
    h = mix(h, std::bit_cast<std::uint64_t>(
                   provider.billing()
                       .running_time(InstanceId{id}, sim.now())
                       .value()));
  }
  h = mix(h, provider.failure_count());
  h = mix(h, provider.billing().billed_instances());
  h = mix(h, std::bit_cast<std::uint64_t>(sim.now().value()));
  return h;
}

struct StormResult {
  std::uint64_t hash = 0;
  std::size_t events = 0;
};

StormResult run_single(std::uint64_t fleet) {
  sim::Simulation sim;
  CloudProvider provider(sim, Rng(777), storm_config());
  drive_storm(sim, provider, fleet, 0xC0FFEEULL);
  StormResult out;
  out.events = sim.run();
  out.hash = storm_fingerprint(sim, provider);
  return out;
}

// The values a binary-heap ready queue over the same slab produced for
// this campaign; the ladder engine agreed with it byte for byte when both
// were built, so any ordering change in the ladder shows up here.
TEST(StormReplay, LadderMatchesRecordedFingerprint) {
  const StormResult ladder = run_single(2000);
  EXPECT_EQ(ladder.events, 7754u);
  EXPECT_EQ(ladder.hash, 10642356285078765985ull);
}

TEST(StormReplay, ReplayIsStableAcrossRepeatedRuns) {
  const StormResult first = run_single(1000);
  const StormResult second = run_single(1000);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.hash, second.hash);
}

}  // namespace
}  // namespace reshape::cloud
