// Flight-recorder overhead microbenchmark — the perf tracker for the
// observability layer (DESIGN.md "Campaign profiling").
//
// The recorder only earns its keep if leaving it on is cheap and leaving
// it off is free.  Three measurements:
//
//   span_ns      cost of one TraceRecorder::complete() with typical args
//                (the controller's attempt-span shape), recording on
//   instant_ns   cost of one instant() with two args, recording on
//   churn        the 1M-event micro_sim churn (sim.* counters on the
//                engine hot path) timed with recording off vs on; the
//                penalty is the events/sec the recorder costs a workload
//                that is all engine, no I/O
//
// An indexing pass (TraceIndex over the recorded spans) is reported for
// context but not gated — it runs off the hot path, after a campaign.
//
// Modes:
//   micro_obs           full reps, writes BENCH_obs.json
//   micro_obs --smoke   fewer reps; exits nonzero when span_ns exceeds
//                       kSpanNsCeiling or the churn penalty exceeds
//                       kChurnPenaltyCeiling.  Wired into the
//                       bench-smoke CTest label and the CI perf-smoke
//                       job.
//
// Needs RESHAPE_OBS=ON: with the recorder compiled out there is nothing
// to measure, and the bench exits 0 reporting that recording sites are
// dead code.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "churn_workload.hpp"
#include "harness.hpp"
#include "obs/profile/trace_index.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace {

using namespace reshape;
using bench::time_best_of;

// Ceilings for the smoke gate.  A span records in the ~250-600 ns range
// on current hardware (one lock, one vector push, a few small-string
// copies); the ceiling leaves ~4x headroom before failing, so it trips
// on a regression (an accidental render or allocation per record), not
// on scheduler noise.  The churn penalty gate bounds what enabling the
// recorder costs a pure engine workload; the counters it drives are
// relaxed atomics, so anything above 30% means the hot path grew a lock
// or an allocation.
constexpr double kSpanNsCeiling = 2500.0;
constexpr double kChurnPenaltyCeiling = 0.30;

/// Records `n` attempt-shaped spans on the global recorder.
void record_spans(std::size_t n) {
  auto& tr = obs::trace();
  for (std::size_t i = 0; i < n; ++i) {
    const double at = static_cast<double>(i) * 1e-3;
    tr.complete(obs::kPidExecutor, static_cast<std::uint32_t>(i % 64),
                "controller", "attempt", at, 5e-4,
                {obs::arg("unit", static_cast<std::uint64_t>(i % 64)),
                 obs::arg("slot", static_cast<std::uint64_t>(i % 16)),
                 obs::arg("instance", static_cast<std::uint64_t>(i)),
                 obs::arg("staging_s", 1e-4), obs::arg("exec_s", 4e-4)});
  }
}

void record_instants(std::size_t n) {
  auto& tr = obs::trace();
  for (std::size_t i = 0; i < n; ++i) {
    tr.instant(obs::kPidExecutor, static_cast<std::uint32_t>(i % 64),
               "controller", "crash", static_cast<double>(i) * 1e-3,
               {obs::arg("unit", static_cast<std::uint64_t>(i % 64)),
                obs::arg("progress", 0.5)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  if (!obs::compiled_in()) {
    std::printf("RESHAPE_OBS=OFF: recording sites are dead code; nothing "
                "to measure\n");
    return 0;
  }

  const int reps = smoke ? 3 : 5;
  const std::size_t spans = 200000;
  const std::uint64_t churn_events = 1000000;
  std::printf("-- %s mode\n", smoke ? "smoke" : "full");

  // Span / instant record cost, recording on.
  obs::reset();
  obs::set_enabled(true);
  const double span_s = time_best_of(reps, [&] {
    obs::trace().clear();
    record_spans(spans);
  });
  const double span_ns = span_s / static_cast<double>(spans) * 1e9;
  const double instant_s = time_best_of(reps, [&] {
    obs::trace().clear();
    record_instants(spans);
  });
  const double instant_ns = instant_s / static_cast<double>(spans) * 1e9;
  std::printf("  span record    %8.0f ns/span    (%zu spans)\n", span_ns,
              spans);
  std::printf("  instant record %8.0f ns/instant (%zu instants)\n",
              instant_ns, spans);

  // Index build over the recorded spans (off the hot path; informational).
  obs::trace().clear();
  record_spans(spans);
  const double index_s = time_best_of(reps, [&] {
    (void)obs::profile::TraceIndex::from_recorder(obs::trace());
  });
  std::printf("  index build    %8.0f ns/event   (snapshot + sort + "
              "nesting)\n",
              index_s / static_cast<double>(spans) * 1e9);
  obs::trace().clear();
  obs::set_enabled(false);

  // Churn penalty: the engine hot path with recording off vs on.
  const benchutil::ChurnOut off_out = benchutil::churn_ladder(churn_events);
  obs::set_enabled(true);
  const benchutil::ChurnOut on_out = benchutil::churn_ladder(churn_events);
  obs::set_enabled(false);
  if (off_out.hash != on_out.hash || off_out.fired != on_out.fired) {
    std::fprintf(stderr,
                 "FATAL: recording changed the churn event stream "
                 "(%016llx/%llu vs %016llx/%llu)\n",
                 static_cast<unsigned long long>(off_out.hash),
                 static_cast<unsigned long long>(off_out.fired),
                 static_cast<unsigned long long>(on_out.hash),
                 static_cast<unsigned long long>(on_out.fired));
    return 2;
  }
  const double churn_off_s = time_best_of(reps, [&] {
    (void)benchutil::churn_ladder(churn_events);
  });
  obs::set_enabled(true);
  const double churn_on_s = time_best_of(reps, [&] {
    (void)benchutil::churn_ladder(churn_events);
  });
  obs::set_enabled(false);
  obs::reset();
  const double penalty =
      churn_off_s > 0.0 ? (churn_on_s - churn_off_s) / churn_off_s : 0.0;
  std::printf("  churn          off %9.0f ev/s   on %9.0f ev/s   "
              "penalty %5.1f%%\n",
              static_cast<double>(off_out.fired) / churn_off_s,
              static_cast<double>(on_out.fired) / churn_on_s,
              penalty * 100.0);

  FILE* out = std::fopen("BENCH_obs.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_obs\",\n");
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out,
                 "  \"ceilings\": {\"span_ns\": %.0f, "
                 "\"churn_penalty\": %.2f},\n",
                 kSpanNsCeiling, kChurnPenaltyCeiling);
    std::fprintf(out, "  \"span_ns\": %.1f,\n", span_ns);
    std::fprintf(out, "  \"instant_ns\": %.1f,\n", instant_ns);
    std::fprintf(out, "  \"index_ns_per_event\": %.1f,\n",
                 index_s / static_cast<double>(spans) * 1e9);
    std::fprintf(out,
                 "  \"churn\": {\"events\": %llu, \"seconds_off\": %.6f, "
                 "\"seconds_on\": %.6f, \"penalty\": %.4f}\n",
                 static_cast<unsigned long long>(churn_events), churn_off_s,
                 churn_on_s, penalty);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_obs.json\n");
  }

  if (smoke) {
    bool ok = true;
    if (span_ns > kSpanNsCeiling) {
      std::fprintf(stderr,
                   "SMOKE FAIL: span record %.0f ns exceeds the %.0f ns "
                   "ceiling\n",
                   span_ns, kSpanNsCeiling);
      ok = false;
    }
    if (penalty > kChurnPenaltyCeiling) {
      std::fprintf(stderr,
                   "SMOKE FAIL: churn recording penalty %.1f%% exceeds the "
                   "%.0f%% ceiling\n",
                   penalty * 100.0, kChurnPenaltyCeiling * 100.0);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke ok: recording overhead within ceilings\n");
  }
  return 0;
}
