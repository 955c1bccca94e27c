// Event-engine microbenchmark — the perf trajectory tracker for the
// simulator core (DESIGN.md "Event engine").
//
// One workload, checked for byte-identical behaviour before any timing,
// so a speedup can never come from an ordering change:
//
//   churn        1M-event self-scheduling churn with O(1) cancels: the
//                slab/ladder engine vs the retained seed engine
//                (SimulationReference: heap-allocated std::function
//                entries on a binary heap with lazy-cancel sets).  Fire
//                logs are FNV-fingerprinted (id, timestamp, cancel
//                outcomes) and must match exactly.
//
// A seeded fault storm on CloudProvider (boot failures, crashes, spot
// interruptions, guarded terminates) is kept untimed as the --trace
// workload; its recorded fingerprint is pinned by
// tests/cloud/test_storm_replay.cpp.
//
// Modes:
//   micro_sim           full sweep, writes BENCH_sim.json
//   micro_sim --smoke   same event counts, fewer reps; exits nonzero if
//                       the churn events/sec ratio falls below
//                       max(4.0, 75% of the recorded ratio).  Wired into
//                       the bench-smoke CTest label.
//   micro_sim --metrics out.json
//                       one extra untimed churn pass with recording on,
//                       then a sim.* counter snapshot (needs
//                       RESHAPE_OBS=ON).
//   micro_sim --trace out.json
//                       one extra untimed fault-storm pass with recording
//                       on, then a canonical Chrome-trace export of the
//                       instance lifecycle spans (needs RESHAPE_OBS=ON).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "churn_workload.hpp"
#include "cloud/provider.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"
#include "sim/simulation.hpp"
#include "sim/simulation_reference.hpp"

namespace {

using namespace reshape;
using benchutil::Churn;
using benchutil::ChurnOut;
using benchutil::churn_ladder;
using benchutil::churn_reference;
using benchutil::splitmix;
using bench::time_best_of;

// Recorded churn ratio (ladder/slab engine vs seed engine, events/sec,
// measured on the 1M-event churn).  The smoke gate fails below 75% of
// this, with an absolute floor of 4x (the acceptance criterion).
constexpr double kRecordedChurnRatio = 5.3;
constexpr double kFloorChurn = 4.0;

// The churn workload itself lives in churn_workload.hpp (shared with
// micro_obs, which replays it to price recording overhead).

// ---------------------------------------------------------- fault storm
// A seeded lifecycle campaign: staggered launches under an aggressive
// fault model, each surviving boot scheduling its own guarded terminate.
void run_storm(std::uint64_t fleet) {
  sim::Simulation sim;
  cloud::ProviderConfig cfg;
  cfg.faults.p_boot_failure = 0.06;
  cfg.faults.crash_rate_per_hour = 0.35;
  cfg.faults.spot_interruption_rate_per_hour = 0.10;
  cloud::CloudProvider provider(sim, Rng(777), cfg);
  const cloud::AvailabilityZone az{};

  std::uint64_t rng = 0xC0FFEEULL;
  for (std::uint64_t i = 0; i < fleet; ++i) {
    const std::uint64_t r = splitmix(rng);
    const Seconds at(static_cast<double>(i) * 1.5);
    const Seconds lifetime(600.0 +
                           static_cast<double>(r % 7200u));  // 10 min..2 h
    sim.schedule_at(at, [&provider, az, lifetime](sim::Simulation& s) {
      provider.launch(
          cloud::InstanceType::kSmall, az,
          [&provider, lifetime](cloud::Instance& inst) {
            const cloud::InstanceId id = inst.id();
            provider.sim().schedule_in(
                lifetime, [&provider, id](sim::Simulation&) {
                  // The crash may win the race; terminate only survivors.
                  if (provider.instance(id).is_running()) {
                    provider.terminate(id);
                  }
                });
          });
      (void)s;
    });
  }
  sim.run();
}

struct Row {
  std::string workload;
  std::uint64_t events = 0;
  double ref_seconds = 0.0;
  double new_seconds = 0.0;
  [[nodiscard]] double ratio() const {
    return new_seconds > 0.0 ? ref_seconds / new_seconds : 0.0;
  }
  [[nodiscard]] double events_per_s(double seconds) const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  obs::Session session;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (!session.take(argc, argv, i)) {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--metrics out.json] "
                   "[--trace out.json]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::uint64_t churn_events = 1000000;
  const int reps = smoke ? 2 : 3;
  std::printf("-- %s mode, churn target %llu events\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(churn_events));

  std::vector<Row> rows;
  bool all_identical = true;
  const auto print_row = [](const Row& r) {
    std::printf(
        "  %-14s ref %10.0f ev/s   new %10.0f ev/s   ratio %5.2fx\n",
        r.workload.c_str(), r.events_per_s(r.ref_seconds),
        r.events_per_s(r.new_seconds), r.ratio());
  };

  // Churn: correctness first (identical fire fingerprints), then timing.
  {
    const ChurnOut ref = churn_reference(churn_events);
    const ChurnOut neu = churn_ladder(churn_events);
    if (ref.hash != neu.hash || ref.fired != neu.fired) {
      std::fprintf(stderr,
                   "FATAL: churn diverged (ref %016llx/%llu vs new "
                   "%016llx/%llu)\n",
                   static_cast<unsigned long long>(ref.hash),
                   static_cast<unsigned long long>(ref.fired),
                   static_cast<unsigned long long>(neu.hash),
                   static_cast<unsigned long long>(neu.fired));
      all_identical = false;
    } else {
      const double t_ref =
          time_best_of(reps, [&] { (void)churn_reference(churn_events); });
      const double t_new =
          time_best_of(reps, [&] { (void)churn_ladder(churn_events); });
      rows.push_back(Row{"churn", ref.fired, t_ref, t_new});
      print_row(rows.back());
    }
  }

  // --------------------------------------------------------------- JSON
  FILE* out = std::fopen("BENCH_sim.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_sim\",\n");
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"recorded_ratios\": {\"churn\": %.2f},\n",
                 kRecordedChurnRatio);
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "    {\"workload\": \"%s\", \"events\": %llu, "
                   "\"seconds_reference\": %.6f, \"seconds_new\": %.6f, "
                   "\"events_per_s_reference\": %.0f, "
                   "\"events_per_s_new\": %.0f, \"ratio\": %.2f}%s\n",
                   r.workload.c_str(),
                   static_cast<unsigned long long>(r.events), r.ref_seconds,
                   r.new_seconds, r.events_per_s(r.ref_seconds),
                   r.events_per_s(r.new_seconds), r.ratio(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_sim.json\n");
  }

  // Observability export: one extra untimed pass with recording on, after
  // every timed section.
  const int exported = session.record([&] {
    (void)churn_ladder(100000);
    // The churn records only counters; the fault storm exercises the
    // instance lifecycle spans the trace is for.
    if (session.tracing()) run_storm(2000);
  });
  if (exported != 0) return exported;

  if (!all_identical) return 2;
  if (smoke) {
    // Identical fingerprints put exactly the churn row in `rows`.
    const Row& churn = rows.front();
    if (!bench::ratio_gate(churn.workload, churn.ratio(), kRecordedChurnRatio,
                           kFloorChurn)) {
      return 1;
    }
    std::printf("smoke ok: churn ratio above threshold\n");
  }
  return 0;
}
