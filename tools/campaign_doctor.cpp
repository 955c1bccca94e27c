// campaign_doctor — run a seeded campaign world through the flight
// recorder and explain where its time and money went.
//
// The tool is the profiler pipeline end to end: it runs an elastic
// campaign with recording on, snapshots the trace into a TraceIndex,
// joins the billing meter's per-instance bills, and renders the doctor's
// post-mortem — critical-path blame per phase, cost buckets, every
// controller decision, and a one-line verdict for every unit that
// missed its deadline.
//
// Worlds (all deterministic for a given --seed):
//   calm    a healthy uniform fleet; nothing for the controller to do
//   chaos   a crash-storm (10 crashes/instance-hour); hedges, re-plans
//           and recoveries everywhere — the demo world
//   doomed  a certain AZ outage with a zero acquisition budget; no
//           instance ever boots, so the controller's one degradation,
//           shed-lowest-value, sheds every unit — the world where the
//           doctor must name acquisition as the dominant phase
//
// Usage:
//   campaign_doctor [--world calm|chaos|doomed] [--seed N]
//                   [--out report.txt] [--json report.json]
//                   [--trace trace.json] [--metrics metrics.json]
//
// The text report always goes to stdout; the flags add file exports.
// Two invocations with the same world and seed produce byte-identical
// reports and traces — the obs-export CTest double-runs and diffs them.
// The metrics snapshot holds wall-clock latency histograms and varies.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "corpus/distribution.hpp"
#include "obs/profile/doctor.hpp"
#include "obs/profile/trace_index.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/controller.hpp"

namespace {

using namespace reshape;
using namespace reshape::provision;

/// ~600 s units judged against a 1 h campaign deadline (the controller
/// test worlds' plan).
ExecutionPlan slack_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(600.0);
  options.strategy = PackingStrategy::kUniform;
  ExecutionPlan plan = planner.plan(data, options);
  plan.deadline = 1_h;
  return plan;
}

struct World {
  cloud::ProviderConfig config;
  ElasticOptions elastic;
};

[[nodiscard]] World make_world(const std::string& name) {
  World world;
  world.config.mixture = cloud::uniform_fast_mixture();
  if (name == "calm") {
    return world;
  }
  if (name == "chaos") {
    world.config.faults.crash_rate_per_hour = 10.0;
    return world;
  }
  if (name == "doomed") {
    world.config.faults.p_az_outage = 1.0;
    world.config.faults.az_outage_spread = Seconds(1.0);
    world.config.faults.az_outage_mean = Seconds(36'000.0);
    world.config.boot_mean = Seconds(30.0);
    world.config.boot_stddev = Seconds(1.0);
    world.config.boot_min = Seconds(20.0);
    world.elastic.epoch = Seconds(60.0);
    world.elastic.acquisition_budget = 0;
    return world;
  }
  std::fprintf(stderr, "unknown world '%s' (calm|chaos|doomed)\n",
               name.c_str());
  std::exit(2);
}

bool write_file(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string world_name = "chaos";
  std::uint64_t seed = 5;
  std::string out_path, json_path;
  obs::Session session;
  for (int i = 1; i < argc; ++i) {
    const auto take = [&](const char* flag, std::string& into) {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    std::string seed_str;
    if (take("--world", world_name) || take("--out", out_path) ||
        take("--json", json_path) || session.take(argc, argv, i)) {
      continue;
    }
    // The whole value must be a decimal seed: "abc", "5x" and "" are
    // usage errors, not seeds 0, 5 and 0.
    if (take("--seed", seed_str)) {
      const char* end = seed_str.data() + seed_str.size();
      const auto [stop, ec] = std::from_chars(seed_str.data(), end, seed);
      if (ec == std::errc{} && stop == end) continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--world calm|chaos|doomed] [--seed N] "
                 "[--out report.txt] [--json report.json] "
                 "[--trace trace.json] [--metrics metrics.json]\n",
                 argv[0]);
    return 2;
  }

  if (!obs::compiled_in()) {
    std::fprintf(stderr,
                 "campaign_doctor needs a build with RESHAPE_OBS=ON (the "
                 "flight recorder is compiled out)\n");
    return 2;
  }

  const World world = make_world(world_name);
  Rng corpus_rng(1);
  const corpus::Corpus data =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, corpus_rng)
          .take_volume(40_MB);
  const ExecutionPlan plan = slack_plan(data);

  obs::reset();
  obs::set_enabled(true);
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(seed), world.config);
  Rng noise(seed + 1000);
  const CampaignReport campaign =
      run_campaign(provider, plan, cloud::pos_profile(), ExecutionOptions{},
                   world.elastic, noise);
  obs::set_enabled(false);

  const auto index = obs::profile::TraceIndex::from_recorder(obs::trace());
  obs::profile::DoctorOptions options;
  options.deadline_us = obs::to_trace_us(plan.deadline.value());
  const obs::profile::DoctorReport report =
      diagnose(index, provider.cost_records(sim.now()), options);

  std::string header = "world: " + world_name +
                       "  seed: " + std::to_string(seed);
  char line[160];
  std::snprintf(line, sizeof line,
                "  units: %zu  deadline hit rate: %.2f\n",
                campaign.execution.outcomes.size(),
                campaign.deadline_hit_rate());
  header += line;
  const std::string text = header + report.to_text();
  std::fputs(text.c_str(), stdout);

  bool ok = true;
  if (!out_path.empty() && !write_file(out_path, text)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    ok = false;
  }
  if (!json_path.empty() && !write_file(json_path, report.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    ok = false;
  }
  if (session.write() != 0) ok = false;
  return ok ? 0 : 1;
}
