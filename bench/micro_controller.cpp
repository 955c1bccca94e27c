// Elastic-controller microbenchmark — the perf/robustness tracker for
// the campaign control loop (DESIGN.md "Elastic control loop").
//
// A storm grid (calm, az-outage, spot-wave, crash-storm) crossed with
// seeds is replayed twice per cell on identical worlds: once through the
// static executor (the paper's one-shot fleet with bounded same-zone
// relaunches) and once through the elastic controller.  Each cell
// records both policies' deadline hits and cost plus the controller's
// wall-clock epoch cost (campaign wall seconds / epoch decisions — an
// upper bound on per-re-plan latency, since it also carries the
// simulated execution between boundaries).
//
// Modes:
//   micro_controller           full grid (3 seeds), writes
//                              BENCH_controller.json
//   micro_controller --smoke   1 seed per storm; exits nonzero if the
//                              elastic controller's aggregate deadline
//                              hits fall below the static executor's, or
//                              a campaign's mean epoch wall cost exceeds
//                              kEpochWallCeiling.  Wired into the
//                              bench-smoke CTest label and the CI
//                              perf-smoke job.
//   micro_controller --trace out.json / --metrics out.json
//                              one extra untimed crash-storm campaign
//                              with recording on, then a canonical
//                              Chrome-trace export / controller.*
//                              counter snapshot (needs RESHAPE_OBS=ON).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "corpus/distribution.hpp"
#include "obs/recorder.hpp"
#include "provision/controller.hpp"

namespace {

using namespace reshape;
using namespace reshape::provision;

// The smoke gate's ceiling on (campaign wall seconds / epochs).  The
// loop runs in microseconds per boundary today; the ceiling only exists
// to catch a pathological re-plan (e.g. an accidental O(n^2) over units
// or an epoch chain that stops terminating).
constexpr double kEpochWallCeiling = 0.25;

/// ~600 s units judged against a 1 h campaign deadline: the regime where
/// the recovery policy, not the raw work, decides hit or miss.
ExecutionPlan slack_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(600.0);
  options.strategy = PackingStrategy::kUniform;
  ExecutionPlan plan = planner.plan(data, options);
  plan.deadline = 1_h;
  return plan;
}

struct Storm {
  const char* name;
  cloud::FaultModel faults;
};

std::vector<Storm> storm_grid() {
  std::vector<Storm> storms;
  storms.push_back(Storm{"calm", {}});
  {
    Storm s{"az-outage", {}};
    s.faults.p_az_outage = 0.7;
    s.faults.az_outage_spread = Seconds(600.0);
    s.faults.az_outage_mean = Seconds(7200.0);
    storms.push_back(s);
  }
  {
    Storm s{"spot-wave", {}};
    s.faults.spot_interruption_rate_per_hour = 12.0;
    storms.push_back(s);
  }
  {
    Storm s{"crash-storm", {}};
    s.faults.crash_rate_per_hour = 10.0;
    storms.push_back(s);
  }
  return storms;
}

cloud::ProviderConfig storm_config(const Storm& storm) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults = storm.faults;
  return config;
}

std::size_t hits(const ExecutionReport& report) {
  std::size_t n = 0;
  for (const InstanceOutcome& o : report.outcomes) {
    if (o.met_deadline) ++n;
  }
  return n;
}

struct Cell {
  std::string storm;
  std::uint64_t seed = 0;
  std::size_t units = 0;
  std::size_t static_hits = 0;
  std::size_t elastic_hits = 0;
  double static_cost = 0.0;
  double elastic_cost = 0.0;
  std::size_t epochs = 0;
  std::size_t acquisitions = 0;
  std::size_t cross_az_moves = 0;
  std::size_t units_shed = 0;
  double campaign_wall_s = 0.0;

  [[nodiscard]] double epoch_wall_s() const {
    return epochs == 0 ? campaign_wall_s
                       : campaign_wall_s / static_cast<double>(epochs);
  }
};

Cell run_cell(const Storm& storm, const ExecutionPlan& plan,
              std::uint64_t seed) {
  Cell cell;
  cell.storm = storm.name;
  cell.seed = seed;
  cell.units = plan.instance_count();
  {
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
    Rng noise(seed + 1000);
    const ExecutionReport report = execute_plan(
        provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
    cell.static_hits = hits(report);
    cell.static_cost = report.cost.amount();
  }
  {
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
    Rng noise(seed + 1000);
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignReport report =
        run_campaign(provider, plan, cloud::pos_profile(), ExecutionOptions{},
                     ElasticOptions{}, noise);
    const auto t1 = std::chrono::steady_clock::now();
    cell.campaign_wall_s = std::chrono::duration<double>(t1 - t0).count();
    cell.elastic_hits = hits(report.execution);
    cell.elastic_cost = report.execution.cost.amount();
    cell.epochs = report.epochs.size();
    cell.acquisitions = report.acquisitions;
    cell.cross_az_moves = report.cross_az_moves;
    cell.units_shed = report.units_shed;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  obs::Session session;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (!session.take(argc, argv, i)) {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--trace out.json] "
                   "[--metrics out.json]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{23}
            : std::vector<std::uint64_t>{11, 23, 47};
  std::printf("-- %s mode, %zu seed(s) per storm\n",
              smoke ? "smoke" : "full", seeds.size());

  Rng rng(1);
  const corpus::Corpus data =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng)
          .take_volume(40_MB);
  const ExecutionPlan plan = slack_plan(data);

  std::vector<Cell> cells;
  std::size_t static_total = 0;
  std::size_t elastic_total = 0;
  std::size_t unit_total = 0;
  double worst_epoch_wall = 0.0;
  for (const Storm& storm : storm_grid()) {
    for (const std::uint64_t seed : seeds) {
      cells.push_back(run_cell(storm, plan, seed));
      const Cell& c = cells.back();
      static_total += c.static_hits;
      elastic_total += c.elastic_hits;
      unit_total += c.units;
      worst_epoch_wall = std::max(worst_epoch_wall, c.epoch_wall_s());
      std::printf(
          "  %-11s seed %2llu  static %zu/%zu  elastic %zu/%zu  "
          "epochs %2zu  acq %2zu  moves %zu  shed %zu  "
          "epoch wall %8.1f us\n",
          c.storm.c_str(), static_cast<unsigned long long>(c.seed),
          c.static_hits, c.units, c.elastic_hits, c.units, c.epochs,
          c.acquisitions, c.cross_az_moves, c.units_shed,
          c.epoch_wall_s() * 1e6);
    }
  }
  std::printf("-- aggregate: static %zu/%zu, elastic %zu/%zu, worst epoch "
              "wall %.1f us\n",
              static_total, unit_total, elastic_total, unit_total,
              worst_epoch_wall * 1e6);

  FILE* out = std::fopen("BENCH_controller.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_controller\",\n");
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"epoch_wall_ceiling_s\": %.3f,\n",
                 kEpochWallCeiling);
    std::fprintf(out,
                 "  \"aggregate\": {\"units\": %zu, \"static_hits\": %zu, "
                 "\"elastic_hits\": %zu, \"worst_epoch_wall_s\": %.6f},\n",
                 unit_total, static_total, elastic_total, worst_epoch_wall);
    std::fprintf(out, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(
          out,
          "    {\"storm\": \"%s\", \"seed\": %llu, \"units\": %zu, "
          "\"static_hits\": %zu, \"elastic_hits\": %zu, "
          "\"static_cost\": %.4f, \"elastic_cost\": %.4f, "
          "\"epochs\": %zu, \"acquisitions\": %zu, "
          "\"cross_az_moves\": %zu, \"units_shed\": %zu, "
          "\"epoch_wall_s\": %.6f}%s\n",
          c.storm.c_str(), static_cast<unsigned long long>(c.seed), c.units,
          c.static_hits, c.elastic_hits, c.static_cost, c.elastic_cost,
          c.epochs, c.acquisitions, c.cross_az_moves, c.units_shed,
          c.epoch_wall_s(), i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_controller.json\n");
  }

  // Observability export: one extra untimed crash-storm campaign with
  // recording on, after every timed section.
  const int exported = session.record([&] {
    for (const Storm& storm : storm_grid()) {
      if (std::strcmp(storm.name, "crash-storm") == 0) {
        (void)run_cell(storm, plan, seeds.front());
      }
    }
  });
  if (exported != 0) return exported;

  // Smoke gates: elastic must not hit fewer deadlines than static over
  // the grid, and the control loop must stay cheap per boundary.
  if (elastic_total < static_total) {
    std::fprintf(stderr,
                 "FAIL: elastic hit %zu deadlines vs static %zu across the "
                 "storm grid\n",
                 elastic_total, static_total);
    return 1;
  }
  if (worst_epoch_wall > kEpochWallCeiling) {
    std::fprintf(stderr,
                 "FAIL: epoch wall cost %.3f s exceeds the %.3f s ceiling\n",
                 worst_epoch_wall, kEpochWallCeiling);
    return 1;
  }
  return 0;
}
