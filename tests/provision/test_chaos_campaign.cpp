// The chaos differential suite: seeded fault storms replayed through both
// the static executor (the paper's one-shot fleet, bounded same-zone
// relaunches) and the elastic campaign controller, on identical worlds.
//
// Acceptance criteria, per ISSUE 7:
//   * across the storm grid the controller's deadline-hit rate strictly
//     exceeds the static rescheduler's (the AZ-outage cells are where the
//     separation comes from: static relaunches into the dead zone until
//     its screening budget exhausts; elastic escapes cross-AZ);
//   * no lost or duplicated units — every unit resolves exactly once as
//     completed, shed or abandoned (the completion-once and digest
//     invariants are RESHAPE_REQUIREd inside the controller, so a finished
//     run is itself the proof);
//   * billing stays consistent: every launched instance ends terminated or
//     failed, and the meter's cost/hour totals are positive and replayable.
#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/distribution.hpp"
#include "provision/controller.hpp"

namespace reshape::provision {
namespace {

corpus::Corpus data_40mb() {
  Rng rng(1);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng);
  return all.take_volume(40_MB);
}

/// ~600 s units against a 1 h campaign deadline: enough slack that the
/// deadline is decided by the recovery policy, not by the raw work.
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
  {
    // Each zone independently has a 70% chance of a long outage striking
    // inside the unit runtime: the primary usually dies, but an escape
    // zone usually exists — the regime where cross-AZ replacement pays.
    Storm s{"az-outage", {}};
    s.faults.p_az_outage = 0.7;
    s.faults.az_outage_spread = Seconds(600.0);
    s.faults.az_outage_mean = Seconds(7200.0);  // outlives the campaign
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

constexpr std::uint64_t kSeeds[] = {11, 23, 47};

cloud::ProviderConfig storm_config(const Storm& storm) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults = storm.faults;
  return config;
}

ExecutionReport run_static(const Storm& storm, const ExecutionPlan& plan,
                           std::uint64_t seed) {
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
  Rng noise(seed + 1000);
  return execute_plan(provider, plan, cloud::pos_profile(),
                      ExecutionOptions{}, noise);
}

CampaignReport run_elastic(const Storm& storm, const ExecutionPlan& plan,
                           std::uint64_t seed) {
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(seed), storm_config(storm));
  Rng noise(seed + 1000);
  return run_campaign(provider, plan, cloud::pos_profile(),
                      ExecutionOptions{}, ElasticOptions{}, noise);
}

std::size_t hits(const ExecutionReport& report) {
  std::size_t n = 0;
  for (const InstanceOutcome& o : report.outcomes) {
    if (o.met_deadline) ++n;
  }
  return n;
}

/// Exactly-once resolution: completed, shed and abandoned partition the
/// unit set.
void check_unit_conservation(const CampaignReport& report,
                             const ExecutionPlan& plan) {
  ASSERT_EQ(report.execution.outcomes.size(), plan.instance_count());
  std::size_t completed = 0;
  for (const InstanceOutcome& o : report.execution.outcomes) {
    if (o.completed) {
      ++completed;
      EXPECT_TRUE(o.error.empty());
    } else {
      EXPECT_FALSE(o.error.empty());
    }
  }
  EXPECT_EQ(completed + report.units_shed + report.execution.abandoned,
            plan.instance_count());
  EXPECT_EQ(report.shed_units.size(), report.units_shed);
  EXPECT_TRUE(std::is_sorted(report.shed_units.begin(),
                             report.shed_units.end()));
  EXPECT_TRUE(std::adjacent_find(report.shed_units.begin(),
                                 report.shed_units.end()) ==
              report.shed_units.end());
  for (const std::size_t index : report.shed_units) {
    EXPECT_LT(index, plan.instance_count());
    EXPECT_FALSE(report.execution.outcomes[index].completed);
  }
}

TEST(ChaosCampaign, ElasticBeatsStaticAcrossTheStormGrid) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  std::size_t static_hits = 0;
  std::size_t elastic_hits = 0;
  std::size_t cells = 0;
  for (const Storm& storm : storm_grid()) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(::testing::Message()
                   << "storm=" << storm.name << " seed=" << seed);
      const ExecutionReport st = run_static(storm, plan, seed);
      const CampaignReport el = run_elastic(storm, plan, seed);
      check_unit_conservation(el, plan);
      static_hits += hits(st);
      elastic_hits += hits(el.execution);
      ++cells;
    }
  }
  ASSERT_EQ(cells, 9u);
  // The tentpole claim: strictly better deadline-hit rate over the grid.
  EXPECT_GT(elastic_hits, static_hits)
      << "elastic=" << elastic_hits << " static=" << static_hits << " of "
      << cells * plan.instance_count();
  // And the grid actually stressed something.
  EXPECT_LT(static_hits, cells * plan.instance_count());
}

TEST(ChaosCampaign, AzOutageCellsSeparateThePolicies) {
  // In the AZ-outage storm, the static executor's same-zone relaunch loop
  // cannot escape the episode; the controller must hit what static misses.
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const Storm storm = storm_grid()[0];
  ASSERT_STREQ(storm.name, "az-outage");
  std::size_t static_hits = 0;
  std::size_t elastic_hits = 0;
  std::size_t moves = 0;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const ExecutionReport st = run_static(storm, plan, seed);
    const CampaignReport el = run_elastic(storm, plan, seed);
    static_hits += hits(st);
    elastic_hits += hits(el.execution);
    moves += el.cross_az_moves;
  }
  EXPECT_GT(elastic_hits, static_hits);
  EXPECT_GE(moves, 1u) << "no campaign ever moved cross-AZ";
}

TEST(ChaosCampaign, BillingStaysConsistentUnderStorms) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  for (const Storm& storm : storm_grid()) {
    SCOPED_TRACE(storm.name);
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(23), storm_config(storm));
    Rng noise(23 + 1000);
    const CampaignReport report =
        run_campaign(provider, plan, cloud::pos_profile(), ExecutionOptions{},
                     ElasticOptions{}, noise);
    // Every launched instance reached a terminal state: nothing keeps
    // billing after the campaign ends.
    for (std::uint64_t id = 1; id <= provider.launches(); ++id) {
      const cloud::InstanceState state =
          provider.instance(cloud::InstanceId{id}).state();
      EXPECT_TRUE(state == cloud::InstanceState::kTerminated ||
                  state == cloud::InstanceState::kFailed)
          << "instance " << id << " left in state " << to_string(state);
    }
    EXPECT_GT(report.execution.cost.amount(), 0.0);
    EXPECT_GT(report.execution.instance_hours, 0.0);
    // The report's numbers are the meter's numbers.
    const Seconds now = provider.sim().now();
    EXPECT_DOUBLE_EQ(report.execution.cost.amount(),
                     provider.billing().total_cost(now).amount());
    EXPECT_DOUBLE_EQ(report.execution.instance_hours,
                     provider.billing().instance_hours(now));
  }
}

TEST(ChaosCampaign, StormCellsReplayBitIdentically) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  for (const Storm& storm : storm_grid()) {
    SCOPED_TRACE(storm.name);
    const CampaignReport a = run_elastic(storm, plan, 47);
    const CampaignReport b = run_elastic(storm, plan, 47);
    EXPECT_EQ(a.execution.failures, b.execution.failures);
    EXPECT_EQ(a.acquisitions, b.acquisitions);
    EXPECT_EQ(a.cross_az_moves, b.cross_az_moves);
    EXPECT_EQ(a.units_shed, b.units_shed);
    EXPECT_EQ(a.shed_units, b.shed_units);
    EXPECT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_DOUBLE_EQ(a.execution.makespan.value(),
                     b.execution.makespan.value());
    EXPECT_DOUBLE_EQ(a.execution.cost.amount(), b.execution.cost.amount());
    ASSERT_EQ(a.execution.outcomes.size(), b.execution.outcomes.size());
    for (std::size_t i = 0; i < a.execution.outcomes.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.execution.outcomes[i].work_time.value(),
                       b.execution.outcomes[i].work_time.value());
      EXPECT_EQ(a.execution.outcomes[i].completed,
                b.execution.outcomes[i].completed);
    }
  }
}

}  // namespace
}  // namespace reshape::provision
