// campaign family: the storm grid through both campaign drivers.
//
// Each cell (storm x world seed) runs once through the static executor
// (provision::execute_plan) and once through the elastic controller
// (provision::run_campaign) on identical worlds.  The plan is the POS
// "slack" plan of micro_controller — ~600 s units judged against a 1 h
// campaign deadline — over the HTML_18mil size mix, sized so the
// controller's 64-member fleet cap forces shed-lowest-value degradation
// in the storm cells.  The world seeds are fixed; --seed draws the
// corpus.  One step is one pass over the grid; a driver's campaign time is
// the sum over cells of each cell's median over the passes.

#include <bit>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/digest.hpp"
#include "corpus/distribution.hpp"
#include "provision/controller.hpp"

namespace perfbench {
namespace {

using namespace reshape;
using namespace reshape::provision;

// The grid degrades in every storm cell (at seed 7 the storm cells shed
// 829 units in all).  An elastic grid pass takes ~0.1-0.15 s, so a run
// holds several dozen passes for the medians.  Probes run the same size:
// at 250 units a grid pass took ~10 ms, and its time spread across runs
// about three times as much as at 500.
constexpr std::size_t kUnits = 500;
constexpr std::uint64_t kWorldSeeds[] = {23};

model::Predictor eq3_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return model::Predictor::fit(xs, ys);
}

ExecutionPlan slack_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(eq3_predictor());
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

/// The corpus and plan a pass runs: HTML_18mil sizes, cut to the volume
/// that gives `units` slack-plan units.
struct Input {
  corpus::Corpus data;
  ExecutionPlan plan;
};

Input make_input(std::uint64_t seed, std::size_t units) {
  Rng rng = Rng(seed).split("campaign");
  // ~7 MB per unit over ~50 kB files, with headroom.
  const corpus::Corpus all = corpus::Corpus::generate(
      corpus::html_18mil_sizes(), units * 175, rng);
  // HTML_18mil has rare files above one unit's capacity; files are
  // unsplittable, so the slack plan cannot place them and they are left out.
  const Bytes per_unit = eq3_predictor().max_volume_within(Seconds(600.0));
  std::vector<corpus::VirtualFile> placeable;
  for (const corpus::VirtualFile& f : all.files()) {
    if (f.size <= per_unit) placeable.push_back(f);
  }
  Input in;
  in.data = corpus::Corpus(std::move(placeable))
                .take_volume(Bytes(static_cast<std::uint64_t>(
                    (static_cast<double>(units) - 0.5) * per_unit.as_double())));
  in.plan = slack_plan(in.data);
  return in;
}

bool bill_consistent(cloud::CloudProvider& provider,
                     const ExecutionReport& report) {
  const Seconds now = provider.sim().now();
  const double meter = provider.billing().total_cost(now).amount();
  const double hours = provider.billing().instance_hours(now);
  if (std::abs(report.cost.amount() - meter) > 1e-9 * std::max(1.0, meter)) {
    return false;
  }
  if (std::abs(report.instance_hours - hours) > 1e-9 * std::max(1.0, hours)) {
    return false;
  }
  for (std::uint64_t id = 1; id <= provider.launches(); ++id) {
    const cloud::InstanceState state =
        provider.instance(cloud::InstanceId{id}).state();
    if (state != cloud::InstanceState::kTerminated &&
        state != cloud::InstanceState::kFailed) {
      return false;
    }
  }
  return true;
}

std::size_t count_missed(const ExecutionReport& report) {
  std::size_t n = 0;
  for (const InstanceOutcome& o : report.outcomes) n += o.met_deadline ? 0 : 1;
  return n;
}

/// Everything one pass over the grid observed.
struct Pass {
  double static_s = 0.0;
  double elastic_s = 0.0;
  std::vector<double> static_cell_s;   // per cell (storm x world seed)
  std::vector<double> elastic_cell_s;
  std::size_t units = 0;                // unit-runs over both drivers
  std::size_t missed = 0;
  double cost = 0.0;
  // executor
  std::size_t ex_failures = 0, ex_relaunches = 0, ex_redistributions = 0,
              ex_abandoned = 0, ex_missed = 0;
  // controller
  std::size_t epochs = 0, replans = 0, shed = 0, hedges = 0, wins = 0,
              acquisitions = 0, boot_failures = 0, moves = 0, ct_missed = 0;
  // cloud and sim
  std::size_t launched = 0, failures = 0;
  double simulated_h = 0.0;
  std::uint64_t digest = 0;
};

Pass run_pass(const ExecutionPlan& plan, Tracer& tracer, Result& result) {
  const std::vector<Storm> storms = storm_grid();
  Pass pass;
  Digest64 digest;
  for (std::size_t si = 0; si < storms.size(); ++si) {
    const Storm& storm = storms[si];
    for (const std::uint64_t seed : kWorldSeeds) {
      {
        sim::Simulation sim;
        cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
        Rng noise(seed + 1000);
        const double t0 = now_s();
        const ExecutionReport report = tracer.span("executor.execute_plan", [&] {
          return execute_plan(provider, plan, cloud::pos_profile(),
                              ExecutionOptions{}, noise);
        });
        pass.static_s += now_s() - t0;
        pass.static_cell_s.push_back(now_s() - t0);
        ++result.attempted;
        result.check(report.instance_count() == plan.instance_count(),
                     std::string("static ") + storm.name + ": outcome count");
        result.check(bill_consistent(provider, report),
                     std::string("static ") + storm.name + ": bill");
        pass.units += plan.instance_count();
        pass.missed += count_missed(report);
        pass.cost += report.cost.amount();
        pass.ex_failures += report.failures;
        pass.ex_relaunches += report.relaunches;
        pass.ex_redistributions += report.redistributions;
        pass.ex_abandoned += report.abandoned;
        pass.ex_missed += count_missed(report);
        pass.launched += provider.fleet_size();
        pass.failures += provider.failure_count();
        pass.simulated_h += sim.now().value() / 3600.0;
        digest.update_u64(count_missed(report));
        digest.update_u64(std::bit_cast<std::uint64_t>(report.cost.amount()));
      }
      {
        sim::Simulation sim;
        cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
        Rng noise(seed + 1000);
        const double t0 = now_s();
        const CampaignReport report =
            tracer.span(std::string("controller.run_campaign.") + storm.name,
                        [&] {
                          return run_campaign(provider, plan,
                                              cloud::pos_profile(),
                                              ExecutionOptions{},
                                              ElasticOptions{}, noise);
                        });
        const double wall = now_s() - t0;
        pass.elastic_s += wall;
        pass.elastic_cell_s.push_back(wall);
        ++result.attempted;
        std::size_t done = 0;
        for (const InstanceOutcome& o : report.execution.outcomes) {
          done += o.completed ? 1 : 0;
        }
        result.check(report.execution.outcomes.size() == plan.instance_count() &&
                         done + report.units_shed + report.execution.abandoned ==
                             plan.instance_count(),
                     std::string("elastic ") + storm.name +
                         ": done + shed + abandoned != units");
        result.check(bill_consistent(provider, report.execution),
                     std::string("elastic ") + storm.name + ": bill");
        const std::size_t missed = count_missed(report.execution);
        pass.units += plan.instance_count();
        pass.missed += missed;
        pass.cost += report.execution.cost.amount();
        pass.epochs += report.epochs.size();
        pass.replans += report.replans;
        pass.shed += report.units_shed;
        pass.hedges += report.hedges_launched;
        pass.wins += report.speculative_wins;
        pass.acquisitions += report.acquisitions;
        pass.boot_failures += report.boot_failures;
        pass.moves += report.cross_az_moves;
        pass.ct_missed += missed;
        pass.launched += provider.fleet_size();
        pass.failures += provider.failure_count();
        pass.simulated_h += sim.now().value() / 3600.0;
        digest.update_u64(missed);
        digest.update_u64(report.units_shed);
        digest.update_u64(report.epochs.size());
        digest.update_u64(
            std::bit_cast<std::uint64_t>(report.execution.cost.amount()));
      }
    }
  }
  pass.digest = digest.value();
  return pass;
}


class Campaign final : public Family {
 public:
  explicit Campaign(const Options& options) : options_(options) {}

  void setup() override {
    // Corpus generation and planning, repeated; the median counts.
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      const double t0 = now_s();
      input_ = make_input(options_.seed, kUnits);
      setups.push_back(now_s() - t0);
    }
    setup_s_ = median(setups);
  }

  void step(Tracer& tracer, bool traced) override {
    Tracer off(false);
    (traced ? traced_ : passes_)
        .push_back(run_pass(input_.plan, traced ? tracer : off, result_));
  }

  [[nodiscard]] std::size_t steps() const override {
    return passes_.size() + traced_.size();
  }

  void record_obs() override {
    Tracer off(false);
    (void)run_pass(input_.plan, off, result_);
  }

  Result finish(const Tracer& tracer) override;

 private:
  Options options_;
  Input input_;
  double setup_s_ = 0.0;
  std::vector<Pass> passes_, traced_;
  Result result_;
};

/// Per cell, the median over passes; summed over the grid.
double grid_s(const std::vector<Pass>& set, bool elastic) {
  double s = 0.0;
  for (std::size_t c = 0; c < set.front().static_cell_s.size(); ++c) {
    std::vector<double> v;
    for (const Pass& p : set) {
      v.push_back(elastic ? p.elastic_cell_s[c] : p.static_cell_s[c]);
    }
    s += median(v);
  }
  return s;
}

Result Campaign::finish(const Tracer& tracer) {
  Result result = std::move(result_);
  result.setup_s = setup_s_;
  result.info["units"] = std::to_string(input_.plan.instance_count());
  result.info["world_seeds"] = std::to_string(std::size(kWorldSeeds));
  result.info["passes"] = std::to_string(passes_.size() + traced_.size());

  // Determinism: every pass over the same worlds reports the same grid.
  const Pass& first = passes_.front();
  for (const std::vector<Pass>* set : {&passes_, &traced_}) {
    for (const Pass& p : *set) {
      result.check(p.digest == first.digest, "campaign: grid replay diverged");
    }
  }

  result.metric("static_campaign_s", grid_s(passes_, false), "s");
  result.metric("elastic_campaign_s", grid_s(passes_, true), "s");
  result.metric("deadline_miss_frac",
                static_cast<double>(first.missed) /
                    static_cast<double>(first.units),
                "ratio");
  result.metric("cost_usd", first.cost, "USD");
  if (!options_.trace) return result;

  const std::vector<Storm> storms = storm_grid();
  const std::size_t seeds = std::size(kWorldSeeds);
  for (std::size_t si = 0; si < storms.size(); ++si) {
    double storm_s = 0.0;
    for (std::size_t k = 0; k < seeds; ++k) {
      std::vector<double> v;
      for (const Pass& p : traced_) v.push_back(p.elastic_cell_s[si * seeds + k]);
      storm_s += median(v);
    }
    result.layer(std::string("controller.campaign_s.") + storms[si].name,
                 storm_s, "s");
  }
  const auto as_d = [](std::size_t v) { return static_cast<double>(v); };
  const double n = as_d(traced_.size());
  result.layer("controller.epochs", as_d(first.epochs), "count");
  result.layer("controller.replans", as_d(first.replans), "count");
  result.layer("controller.units_shed", as_d(first.shed), "count");
  result.layer("controller.hedges_launched", as_d(first.hedges), "count");
  result.layer("controller.hedge_win_frac",
               first.hedges == 0 ? 0.0 : as_d(first.wins) / as_d(first.hedges),
               "ratio");
  result.layer("controller.acquisitions", as_d(first.acquisitions), "count");
  result.layer("controller.boot_failures", as_d(first.boot_failures), "count");
  result.layer("controller.cross_az_moves", as_d(first.moves), "count");
  result.layer("controller.missed", as_d(first.ct_missed), "count");
  result.layer("executor.execute_s",
               tracer.self_s("executor.execute_plan") / n, "s");
  result.layer("executor.failures", as_d(first.ex_failures), "count");
  result.layer("executor.relaunches", as_d(first.ex_relaunches), "count");
  result.layer("executor.redistributions", as_d(first.ex_redistributions),
               "count");
  result.layer("executor.abandoned", as_d(first.ex_abandoned), "count");
  result.layer("executor.missed", as_d(first.ex_missed), "count");
  result.layer("cloud.instances_launched", as_d(first.launched), "count");
  result.layer("cloud.failures", as_d(first.failures), "count");
  result.layer("sim.simulated_h", first.simulated_h, "h");
  const double traced_s = grid_s(traced_, false) + grid_s(traced_, true);
  const double untraced_s = grid_s(passes_, false) + grid_s(passes_, true);
  result.layer("sim.sim_h_per_wall_s", first.simulated_h / traced_s, "h/s");
  result.layer("obs.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  tracer.write_json(options_.out_dir + "/spans-campaign.json");
  return result;
}

}  // namespace

std::unique_ptr<Family> make_campaign(const Options& options) {
  return std::make_unique<Campaign>(options);
}

}  // namespace perfbench
