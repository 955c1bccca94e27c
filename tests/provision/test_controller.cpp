#include "provision/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "corpus/distribution.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::provision {
namespace {

corpus::Corpus data_40mb(std::uint64_t seed = 1) {
  Rng rng(seed);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng);
  return all.take_volume(40_MB);
}

/// A plan sized for ~600 s units but judged against a 1 h campaign
/// deadline, so fault recovery has slack to fit into — the regime where
/// hitting or missing the deadline is decided by the control policy.
ExecutionPlan slack_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(600.0);
  options.strategy = PackingStrategy::kUniform;
  ExecutionPlan plan = planner.plan(data, options);
  plan.deadline = 1_h;
  return plan;
}

cloud::ProviderConfig fast_config() {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  return config;
}

CampaignReport run_elastic(const cloud::ProviderConfig& config,
                           const ExecutionPlan& plan,
                           const ElasticOptions& elastic,
                           std::uint64_t provider_seed = 5,
                           std::uint64_t noise_seed = 3) {
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(provider_seed), config);
  Rng noise(noise_seed);
  return run_campaign(provider, plan, cloud::pos_profile(),
                      ExecutionOptions{}, elastic, noise);
}

// --- fault-free baseline ---------------------------------------------------

TEST(ElasticCampaign, FaultFreeCompletesEveryUnitWithinDeadline) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const CampaignReport report =
      run_elastic(fast_config(), plan, ElasticOptions{});

  ASSERT_EQ(report.execution.outcomes.size(), plan.instance_count());
  for (const InstanceOutcome& o : report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.met_deadline);
    EXPECT_GT(o.work_time.value(), 0.0);
  }
  EXPECT_EQ(report.execution.missed, 0u);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate(), 1.0);

  // A healthy uniform fleet gives the controller nothing to do.
  EXPECT_EQ(report.stragglers_flagged, 0u);
  EXPECT_EQ(report.hedges_launched, 0u);
  EXPECT_EQ(report.acquisitions, 0u);
  EXPECT_EQ(report.cross_az_moves, 0u);
  EXPECT_EQ(report.units_shed, 0u);
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.execution.failures, 0u);

  // The epoch chain ran and re-planned (units run ~600 s, epochs are 300 s).
  ASSERT_GE(report.epochs.size(), 1u);
  EXPECT_EQ(report.replans, report.epochs.size());
  for (const EpochDecision& e : report.epochs) {
    EXPECT_TRUE(e.flagged.empty());
    EXPECT_FALSE(e.degraded);
  }
}

TEST(ElasticCampaign, FaultFreeReleasesTheWholeFleet) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(5), fast_config());
  Rng noise(3);
  const CampaignReport report = run_campaign(
      provider, plan, cloud::pos_profile(), ExecutionOptions{},
      ElasticOptions{}, noise);
  EXPECT_GT(report.releases, 0u);
  for (std::uint64_t id = 1; id <= provider.launches(); ++id) {
    const cloud::InstanceState state =
        provider.instance(cloud::InstanceId{id}).state();
    EXPECT_TRUE(state == cloud::InstanceState::kTerminated ||
                state == cloud::InstanceState::kFailed)
        << "instance " << id << " leaked in state " << to_string(state);
  }
  EXPECT_GT(report.execution.cost.amount(), 0.0);
  EXPECT_GT(report.execution.instance_hours, 0.0);
}

TEST(ElasticCampaign, FaultFreeReplaysBitIdentically) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const CampaignReport a = run_elastic(fast_config(), plan, ElasticOptions{});
  const CampaignReport b = run_elastic(fast_config(), plan, ElasticOptions{});
  EXPECT_DOUBLE_EQ(a.execution.makespan.value(), b.execution.makespan.value());
  EXPECT_DOUBLE_EQ(a.execution.cost.amount(), b.execution.cost.amount());
  EXPECT_EQ(a.epochs.size(), b.epochs.size());
  ASSERT_EQ(a.execution.outcomes.size(), b.execution.outcomes.size());
  for (std::size_t i = 0; i < a.execution.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.execution.outcomes[i].work_time.value(),
                     b.execution.outcomes[i].work_time.value());
  }
}

// --- straggler hedging -----------------------------------------------------

TEST(ElasticCampaign, HedgesStragglersAndTheHedgeWins) {
  cloud::ProviderConfig config;
  config.mixture.p_fast = 0.8;
  config.mixture.p_slow = 0.2;
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);

  const CampaignReport hedged =
      run_elastic(config, plan, ElasticOptions{}, 77, 2);
  ASSERT_GE(hedged.stragglers_flagged, 1u)
      << "seed no longer draws a slow instance; pick another seed";
  EXPECT_GE(hedged.hedges_launched, 1u);
  EXPECT_GE(hedged.acquisitions, hedged.hedges_launched);
  EXPECT_GE(hedged.speculative_wins, 1u);
  for (const InstanceOutcome& o : hedged.execution.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

// --- crash storms ----------------------------------------------------------

cloud::ProviderConfig crashy_config(double crash_rate) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.crash_rate_per_hour = crash_rate;
  return config;
}

TEST(ElasticCampaign, CrashStormRecoversEveryUnit) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const CampaignReport report =
      run_elastic(crashy_config(6.0), plan, ElasticOptions{}, 31, 1);
  ASSERT_GE(report.execution.failures, 1u)
      << "seed no longer injects a crash; pick another seed";
  EXPECT_GE(report.acquisitions, 1u);
  EXPECT_GT(report.execution.recovery_time.value(), 0.0);
  EXPECT_EQ(report.execution.abandoned, 0u);
  EXPECT_EQ(report.units_shed, 0u);
  for (const InstanceOutcome& o : report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

TEST(ElasticCampaign, CrashStormReplaysBitIdentically) {
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const CampaignReport a =
      run_elastic(crashy_config(6.0), plan, ElasticOptions{}, 31, 1);
  const CampaignReport b =
      run_elastic(crashy_config(6.0), plan, ElasticOptions{}, 31, 1);
  EXPECT_EQ(a.execution.failures, b.execution.failures);
  EXPECT_EQ(a.acquisitions, b.acquisitions);
  EXPECT_EQ(a.stragglers_flagged, b.stragglers_flagged);
  EXPECT_EQ(a.epochs.size(), b.epochs.size());
  EXPECT_DOUBLE_EQ(a.execution.makespan.value(), b.execution.makespan.value());
  ASSERT_EQ(a.execution.outcomes.size(), b.execution.outcomes.size());
  for (std::size_t i = 0; i < a.execution.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.execution.outcomes[i].work_time.value(),
                     b.execution.outcomes[i].work_time.value());
    EXPECT_EQ(a.execution.outcomes[i].failures,
              b.execution.outcomes[i].failures);
  }
}

// --- AZ outage escape ------------------------------------------------------

TEST(ElasticCampaign, AzOutageTriggersCrossAzReplacement) {
  cloud::ProviderConfig config = fast_config();
  config.faults.p_az_outage = 1.0;
  config.faults.az_outage_spread = Seconds(600.0);
  config.faults.az_outage_mean = Seconds(7200.0);  // outage outlives the run
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  const CampaignReport report =
      run_elastic(config, plan, ElasticOptions{}, 11, 4);
  ASSERT_GE(report.cross_az_moves, 1u)
      << "seed strikes before any volume exists; pick another seed";
  for (const InstanceOutcome& o : report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.met_deadline);
  }
  EXPECT_EQ(report.execution.missed, 0u);
  EXPECT_GE(report.acquisitions, 1u);
}

// --- zone failure clusters -------------------------------------------------
//
// Without an AZ-outage fault a zone turns suspect only on a failure
// cluster: two member failures in it within one epoch.  An epoch longer
// than the campaign puts every failure in the first one, and until the
// primary zone turns suspect every launch goes there, so a re-stage into
// another zone is the cluster rule's doing.

struct ClusterRun {
  CampaignReport report;
  std::size_t suspect_marks = 0;  // zone-suspect instants (recording on)
};

ClusterRun run_crash_only(std::uint64_t provider_seed) {
  ElasticOptions elastic;
  elastic.epoch = Seconds(36'000.0);
  const bool record = obs::compiled_in();
  if (record) {
    obs::reset();
    obs::set_enabled(true);
  }
  ClusterRun run{run_elastic(crashy_config(1.0), slack_plan(data_40mb()),
                             elastic, provider_seed, 1)};
  if (record) {
    obs::set_enabled(false);
    for (const obs::TraceEvent& e : obs::trace().snapshot()) {
      if (e.ph == 'i' && e.name == "zone-suspect") ++run.suspect_marks;
    }
    obs::reset();
  }
  return run;
}

TEST(ElasticCampaign, TwoFailuresInOneEpochMarkTheZoneSuspect) {
  const ClusterRun run = run_crash_only(4);
  ASSERT_EQ(run.report.execution.failures, 2u)
      << "seed no longer crashes exactly twice; pick another seed";
  ASSERT_TRUE(run.report.epochs.empty());  // both failures in epoch one
  EXPECT_GE(run.report.cross_az_moves, 1u);
  if (obs::compiled_in()) {
    EXPECT_EQ(run.suspect_marks, 1u);
  }
  for (const InstanceOutcome& o : run.report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

TEST(ElasticCampaign, OneFailureLeavesTheZoneTrusted) {
  const ClusterRun run = run_crash_only(1);
  ASSERT_EQ(run.report.execution.failures, 1u)
      << "seed no longer crashes exactly once; pick another seed";
  EXPECT_GE(run.report.acquisitions, 1u);  // the replacement stayed home
  EXPECT_EQ(run.report.cross_az_moves, 0u);
  if (obs::compiled_in()) {
    EXPECT_EQ(run.suspect_marks, 0u);
  }
  for (const InstanceOutcome& o : run.report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

// --- graceful degradation --------------------------------------------------

/// A world where no instance ever boots: every zone's outage starts
/// within the first second and outlives the horizon, so each boot lands
/// inside a dead zone and fails — deterministic doom without needing the
/// (disallowed) p_boot_failure = 1.
cloud::ProviderConfig doomed_config() {
  cloud::ProviderConfig config = fast_config();
  config.faults.p_az_outage = 1.0;
  config.faults.az_outage_spread = Seconds(1.0);
  config.faults.az_outage_mean = Seconds(36'000.0);
  config.boot_mean = Seconds(30.0);
  config.boot_stddev = Seconds(1.0);
  config.boot_min = Seconds(20.0);
  return config;
}

ElasticOptions doomed_options() {
  ElasticOptions elastic;
  elastic.epoch = Seconds(60.0);
  elastic.acquisition_budget = 0;
  return elastic;
}

TEST(ElasticCampaign, ShedsLowestValueFirstWithIndexTiebreak) {
  const corpus::Corpus data = data_40mb();
  ExecutionPlan plan = slack_plan(data);
  ASSERT_GE(plan.assignments.size(), 3u);
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    plan.assignments[i].value = static_cast<double>(i % 3);
  }

  const CampaignReport report =
      run_elastic(doomed_config(), plan, doomed_options());

  // Everything was shed, exactly once each, and reported.
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.units_shed, plan.assignments.size());
  ASSERT_EQ(report.shed_units.size(), plan.assignments.size());
  EXPECT_TRUE(std::is_sorted(report.shed_units.begin(),
                             report.shed_units.end()));
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate(), 0.0);
  EXPECT_EQ(report.bytes_shed.count(), plan.total_volume().count());
  for (const InstanceOutcome& o : report.execution.outcomes) {
    EXPECT_FALSE(o.completed);
    EXPECT_EQ(o.error.rfind("shed:", 0), 0u) << o.error;
  }

  // The shedding epoch ordered victims by ascending value, ties broken by
  // shedding the higher index first.
  std::vector<std::size_t> order;
  for (const EpochDecision& e : report.epochs) {
    order.insert(order.end(), e.shed_units.begin(), e.shed_units.end());
  }
  ASSERT_EQ(order.size(), plan.assignments.size());
  std::vector<std::size_t> expected(order.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double va = plan.assignments[a].value;
                     const double vb = plan.assignments[b].value;
                     if (va != vb) return va < vb;
                     return a > b;
                   });
  EXPECT_EQ(order, expected);
}

TEST(ElasticCampaign, UnitsWithABootingMemberHaveNoPendingBytes) {
  // Every boot takes at least 200 s and the first epoch fires at 60 s, so
  // each unit still has its initial member booting toward it: none of its
  // bytes are pending, and the re-plan acquires nothing.
  const corpus::Corpus data = data_40mb();
  const ExecutionPlan plan = slack_plan(data);
  cloud::ProviderConfig config = fast_config();
  config.boot_mean = Seconds(300.0);
  config.boot_min = Seconds(200.0);
  ElasticOptions elastic;
  elastic.epoch = Seconds(60.0);
  const CampaignReport report = run_elastic(config, plan, elastic);

  ASSERT_FALSE(report.epochs.empty());
  const EpochDecision& first = report.epochs.front();
  EXPECT_DOUBLE_EQ(first.at.value(), 60.0);
  EXPECT_EQ(first.live_members, plan.instance_count());
  EXPECT_EQ(first.units_pending, plan.instance_count());
  EXPECT_EQ(first.bytes_remaining.count(), 0u);
  EXPECT_EQ(first.acquired, 0u);
  EXPECT_FALSE(first.degraded);
}

// --- §3.1 checkpoint monitoring --------------------------------------------
//
// `reshape_cli --dynamic` runs the controller with default knobs and the
// epoch set to a checkpoint interval (deadline / 6).  These cases pin that
// configuration on a 200 MB POS plan with a 1 h deadline.

corpus::Corpus data_200mb() {
  Rng rng(1);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 60'000, rng);
  return all.take_volume(200_MB);
}

ExecutionPlan hour_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  return planner.plan(data, options);
}

ElasticOptions checkpoint_options(const ExecutionPlan& plan) {
  ElasticOptions elastic;
  elastic.epoch = plan.deadline / 6.0;
  return elastic;
}

cloud::ProviderConfig half_slow_config() {
  cloud::ProviderConfig config;
  config.mixture.p_fast = 0.5;
  config.mixture.p_slow = 0.5;
  return config;
}

TEST(DynamicExecution, CompletesEveryAssignment) {
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport report = run_elastic(
      cloud::ProviderConfig{}, plan, checkpoint_options(plan), 31, 1);
  ASSERT_EQ(report.execution.instance_count(), plan.instance_count());
  for (const InstanceOutcome& o : report.execution.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_GT(o.work_time.value(), 0.0);
  }
}

TEST(DynamicExecution, ReplacesSlowInstances) {
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport report = run_elastic(
      half_slow_config(), plan, checkpoint_options(plan), 31, 2);
  EXPECT_GE(report.stragglers_flagged, 1u);
  EXPECT_GE(report.hedges_launched, 1u);
  EXPECT_GE(report.speculative_wins, 1u);
  EXPECT_EQ(report.speculative_wins + report.speculative_losses,
            report.hedges_launched);
}

TEST(DynamicExecution, BeatsStaticOnSlowFleet) {
  const ExecutionPlan plan = hour_plan(data_200mb());

  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(31), half_slow_config());
  Rng noise(2);
  const ExecutionReport static_report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);

  const CampaignReport dynamic = run_elastic(
      half_slow_config(), plan, checkpoint_options(plan), 31, 2);
  EXPECT_LT(dynamic.execution.makespan.value(),
            static_report.makespan.value());
  EXPECT_LE(dynamic.execution.late_units(), static_report.late_units());
}

TEST(DynamicExecution, NoReplacementsOnUniformFastFleet) {
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport report =
      run_elastic(fast_config(), plan, checkpoint_options(plan), 5, 3);
  EXPECT_EQ(report.stragglers_flagged, 0u);
  EXPECT_EQ(report.hedges_launched, 0u);
  EXPECT_EQ(report.execution.late_units(), 0u);
}

/// Every unit resolved exactly once: completed, or shed with the shed
/// error, never both, and the shed set names each shed unit once.
void expect_resolved_once(const CampaignReport& report) {
  std::size_t completed = 0;
  std::vector<std::size_t> shed;
  for (const InstanceOutcome& o : report.execution.outcomes) {
    if (o.completed) {
      ++completed;
      EXPECT_TRUE(o.error.empty()) << "unit " << o.index << ": " << o.error;
      continue;
    }
    shed.push_back(o.index);
    EXPECT_EQ(o.error,
              "shed: deadline infeasible at full acquisition budget")
        << "unit " << o.index;
    EXPECT_FALSE(o.met_deadline);
  }
  EXPECT_EQ(shed, report.shed_units);
  EXPECT_EQ(report.units_shed, shed.size());
  EXPECT_EQ(report.execution.abandoned, 0u);
  EXPECT_EQ(completed + shed.size(), report.execution.outcomes.size());
}

TEST(DynamicFaults, SurvivesCrashesAroundTheCheckpoint) {
  // A high crash rate lands failures before, at and after the first
  // epoch boundary across the fleet; the acquisition budget replaces them
  // and the recovered units complete.
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport report =
      run_elastic(crashy_config(3.0), plan, checkpoint_options(plan), 31, 1);
  ASSERT_GE(report.execution.failures, 1u)
      << "seed no longer injects a crash; pick another seed";
  EXPECT_GE(report.acquisitions, 1u);
  EXPECT_GT(report.execution.recovery_time.value(), 0.0);
  expect_resolved_once(report);
  std::size_t recovered = 0;
  for (const InstanceOutcome& o : report.execution.outcomes) {
    if (!o.completed) continue;
    EXPECT_GT(o.work_time.value(), 0.0);
    if (o.failures > 0) ++recovered;
  }
  EXPECT_GE(recovered, 1u) << "no crashed unit went on to complete";
}

TEST(DynamicFaults, ExhaustedRelaunchBudgetAbandonsCleanly) {
  // Crashes every few simulated minutes and no budget to replace them:
  // the lost capacity leaves the deadline out of reach, so the stranded
  // units are shed, each exactly once and with the shed error.
  const ExecutionPlan plan = hour_plan(data_200mb());
  ElasticOptions elastic = checkpoint_options(plan);
  elastic.acquisition_budget = 0;
  const CampaignReport report =
      run_elastic(crashy_config(40.0), plan, elastic, 31, 1);
  ASSERT_GE(report.execution.failures, 1u)
      << "seed no longer injects a crash; pick another seed";
  EXPECT_EQ(report.acquisitions, 0u);
  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.units_shed, 0u);
  expect_resolved_once(report);
}

TEST(DynamicFaults, CrashyRunsReplayBitIdentically) {
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport a =
      run_elastic(crashy_config(3.0), plan, checkpoint_options(plan), 31, 1);
  const CampaignReport b =
      run_elastic(crashy_config(3.0), plan, checkpoint_options(plan), 31, 1);
  EXPECT_EQ(a.execution.failures, b.execution.failures);
  EXPECT_EQ(a.acquisitions, b.acquisitions);
  EXPECT_EQ(a.execution.abandoned, b.execution.abandoned);
  EXPECT_DOUBLE_EQ(a.execution.makespan.value(), b.execution.makespan.value());
  ASSERT_EQ(a.execution.outcomes.size(), b.execution.outcomes.size());
  for (std::size_t i = 0; i < a.execution.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.execution.outcomes[i].work_time.value(),
                     b.execution.outcomes[i].work_time.value());
    EXPECT_EQ(a.execution.outcomes[i].failures,
              b.execution.outcomes[i].failures);
  }
}

TEST(DynamicFaults, ZeroFaultModelKeepsCountersZeroAndBehaviourIdentical) {
  const ExecutionPlan plan = hour_plan(data_200mb());
  const CampaignReport report =
      run_elastic(fast_config(), plan, checkpoint_options(plan), 5, 3);
  EXPECT_EQ(report.execution.failures, 0u);
  EXPECT_EQ(report.acquisitions, 0u);
  EXPECT_EQ(report.execution.abandoned, 0u);
  EXPECT_DOUBLE_EQ(report.execution.recovery_time.value(), 0.0);
  const CampaignReport again =
      run_elastic(fast_config(), plan, checkpoint_options(plan), 5, 3);
  EXPECT_DOUBLE_EQ(report.execution.makespan.value(),
                   again.execution.makespan.value());
}

TEST(ElasticCampaign, HedgeWonWorkTimeSpansFromTheFirstAttempt) {
  // A hedge starts epochs after the unit's first attempt; the unit's work
  // time must cover that whole span, not just the hedge's own run.  The
  // attempt spans in the flight recorder give both ends.
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = hour_plan(data_200mb());
  obs::reset();
  obs::set_enabled(true);
  const CampaignReport report = run_elastic(
      half_slow_config(), plan, checkpoint_options(plan), 31, 2);
  obs::set_enabled(false);
  ASSERT_GE(report.speculative_wins, 1u)
      << "seed no longer lets a hedge win; pick another seed";

  std::map<std::uint32_t, std::int64_t> first_start_us;
  std::map<std::uint32_t, std::int64_t> hedge_win_end_us;
  for (const obs::TraceEvent& e : obs::trace().snapshot()) {
    if (e.ph != 'X' || e.pid != obs::kPidExecutor ||
        e.name.rfind("attempt", 0) != 0) {
      continue;
    }
    const auto [it, fresh] = first_start_us.try_emplace(e.tid, e.ts_us);
    if (!fresh) it->second = std::min(it->second, e.ts_us);
    if (e.name == "attempt#hedge") hedge_win_end_us[e.tid] = e.ts_us + e.dur_us;
  }
  obs::reset();
  ASSERT_EQ(hedge_win_end_us.size(), report.speculative_wins);
  for (const auto& [unit, end_us] : hedge_win_end_us) {
    const InstanceOutcome& o = report.execution.outcomes.at(unit);
    const double wall_s =
        static_cast<double>(end_us - first_start_us.at(unit)) * 1e-6;
    // Trace stamps are rounded to whole microseconds.
    EXPECT_GE(o.work_time.value(), wall_s - 2e-6) << "unit " << unit;
  }
}

}  // namespace
}  // namespace reshape::provision
