#include "provision/executor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "corpus/distribution.hpp"
#include "provision/planner.hpp"

namespace reshape::provision {
namespace {

corpus::Corpus small_gig(std::uint64_t seed = 1) {
  Rng rng(seed);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 60'000, rng);
  return all.take_volume(200_MB);
}

ExecutionPlan uniform_plan(const corpus::Corpus& data, Seconds deadline) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = deadline;
  options.strategy = PackingStrategy::kUniform;
  return planner.plan(data, options);
}

struct ExecutorFixture : ::testing::Test {
  sim::Simulation sim;
  cloud::ProviderConfig uniform_config() {
    cloud::ProviderConfig config;
    config.mixture = cloud::uniform_fast_mixture();
    return config;
  }
};

TEST_F(ExecutorFixture, AllAssignmentsRunAndTerminate) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const corpus::Corpus data = small_gig();
  const ExecutionPlan plan = uniform_plan(data, 1_h);
  Rng noise(1);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
  EXPECT_EQ(report.instance_count(), plan.instance_count());
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.id.valid());
    EXPECT_GT(o.exec_time.value(), 0.0);
    EXPECT_EQ(provider.instance(o.id).state(),
              cloud::InstanceState::kTerminated);
  }
  EXPECT_GT(report.makespan.value(), 0.0);
}

TEST_F(ExecutorFixture, UniformFleetMeetsDeadline) {
  // With the paper's simplifying assumption (all instances uniform and
  // well-performing), a uniform plan meets its deadline.
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(2);
  ExecutionOptions options;
  options.data_on_ebs = true;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_EQ(report.missed, 0u);
  EXPECT_LE(report.makespan, plan.deadline);
}

TEST_F(ExecutorFixture, HeterogeneousFleetCanMiss) {
  // Slow instances (up to 4x CPU) blow through a deadline the uniform
  // model predicted comfortably — the paper's Fig. 8(a)/9(b) misses.
  cloud::ProviderConfig config;  // default heterogeneous mixture
  cloud::CloudProvider provider(sim, Rng(123), config);
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(3);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
  EXPECT_GT(report.missed, 0u);
  EXPECT_GT(report.worst_overrun(), 1.0);
}

TEST_F(ExecutorFixture, CostMatchesBilledInstanceHours) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(4);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
  EXPECT_NEAR(report.cost.amount(), report.instance_hours * 0.085, 1e-9);
  // Sub-hour runs bill one hour each.
  EXPECT_DOUBLE_EQ(report.instance_hours,
                   static_cast<double>(plan.instance_count()));
}

TEST_F(ExecutorFixture, LocalStagingAddsConstantTime) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(5);
  ExecutionOptions local;
  local.data_on_ebs = false;
  local.local_staging_time = Seconds(180.0);
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), local, noise);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_DOUBLE_EQ(o.staging.value(), 180.0);
  }
}

TEST_F(ExecutorFixture, ReshapedUnitChangesFileCount) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const corpus::Corpus data = small_gig();
  const ExecutionPlan plan = uniform_plan(data, 1_h);
  Rng noise(6);
  ExecutionOptions reshaped;
  reshaped.reshaped_unit = 10_MB;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::grep_profile(), reshaped, noise);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_LE(o.file_count,
              o.volume.count() / (10_MB).count() + 1);
  }
}

TEST_F(ExecutorFixture, DeterministicAcrossReplays) {
  const corpus::Corpus data = small_gig();
  const ExecutionPlan plan = uniform_plan(data, 1_h);
  auto run_once = [&](std::uint64_t seed) {
    sim::Simulation local_sim;
    cloud::CloudProvider provider(local_sim, Rng(seed), cloud::ProviderConfig{});
    Rng noise(9);
    return execute_plan(provider, plan, cloud::pos_profile(),
                        ExecutionOptions{}, noise);
  };
  const ExecutionReport a = run_once(42);
  const ExecutionReport b = run_once(42);
  ASSERT_EQ(a.instance_count(), b.instance_count());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].work_time.value(),
                     b.outcomes[i].work_time.value());
  }
  EXPECT_EQ(a.cost, b.cost);
}

// --- Fault tolerance ------------------------------------------------------

cloud::ProviderConfig faulty_config(double crash_rate,
                                    double p_boot = 0.0) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.crash_rate_per_hour = crash_rate;
  config.faults.p_boot_failure = p_boot;
  return config;
}

ExecutionOptions recovery_options() {
  ExecutionOptions options;
  // The uniform-fast fleet benches writes at 65 * 0.92 = 59.8 MB/s, so the
  // paper's 60 MB/s bar would reject every replacement; screen just below.
  options.relaunch_threshold = Rate::megabytes_per_second(55.0);
  // A generous budget: these tests assert completion, not abandonment.
  options.max_relaunches = 10;
  return options;
}

TEST_F(ExecutorFixture, ZeroFaultModelKeepsAllFaultCountersZero) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.relaunches, 0u);
  EXPECT_EQ(report.redistributions, 0u);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_DOUBLE_EQ(report.recovery_time.value(), 0.0);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.error.empty());
    EXPECT_EQ(o.failures, 0u);
    EXPECT_EQ(o.relaunches, 0u);
  }
}

TEST_F(ExecutorFixture, SurvivesCrashesAndCompletesEveryAssignment) {
  // A crash rate of ~1.5/instance-hour over half-hour-ish runs gives a
  // high chance of at least one mid-run failure across the fleet.
  cloud::CloudProvider provider(sim, Rng(101), faulty_config(1.5));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), recovery_options(), noise);
  ASSERT_GE(report.failures, 1u) << "seed no longer injects a failure; "
                                    "pick another seed for this test";
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GE(report.relaunches + report.redistributions, 1u);
  EXPECT_GT(report.recovery_time.value(), 0.0);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_GT(o.work_time.value(), 0.0);
  }
}

TEST_F(ExecutorFixture, CrashedAssignmentReusesItsEbsVolume) {
  cloud::CloudProvider provider(sim, Rng(101), faulty_config(1.5));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options = recovery_options();
  options.data_on_ebs = true;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  ASSERT_GE(report.failures, 1u);
  // Recovery re-attaches the assignment's persistent volume instead of
  // creating a new one: exactly one volume per assignment, ever.
  EXPECT_EQ(provider.volume_count(), plan.instance_count());
  for (const InstanceOutcome& o : report.outcomes) {
    ASSERT_TRUE(o.volume_id.valid());
    // The data staged onto the volume survived every crash.
    EXPECT_GE(provider.volume(o.volume_id).used(), o.volume);
  }
}

TEST_F(ExecutorFixture, BootFailuresAreRecoveredToo) {
  cloud::CloudProvider provider(sim, Rng(55), faulty_config(0.0, 0.3));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), recovery_options(), noise);
  ASSERT_GE(report.failures, 1u) << "seed no longer injects a boot failure";
  EXPECT_EQ(report.abandoned, 0u);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

TEST_F(ExecutorFixture, ExhaustedRecoveryYieldsStructuredErrorNotACrash) {
  // Every boot fails (bar a sliver) and no relaunches are allowed: with no
  // survivor to redistribute to, assignments degrade to error outcomes.
  cloud::ProviderConfig config = faulty_config(0.0, 0.999);
  cloud::CloudProvider provider(sim, Rng(77), config);
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.max_relaunches = 0;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  ASSERT_GT(report.abandoned, 0u);
  // An abandoned assignment never meets the deadline.
  EXPECT_GE(report.missed, report.abandoned);
  for (const InstanceOutcome& o : report.outcomes) {
    if (!o.completed) {
      EXPECT_FALSE(o.error.empty());
      EXPECT_FALSE(o.met_deadline);
    }
  }
}

TEST_F(ExecutorFixture, FaultyRunsReplayBitIdentically) {
  const corpus::Corpus data = small_gig();
  const ExecutionPlan plan = uniform_plan(data, 1_h);
  auto run_once = [&]() {
    sim::Simulation local_sim;
    cloud::CloudProvider provider(local_sim, Rng(101), faulty_config(1.5, 0.1));
    Rng noise(9);
    return execute_plan(provider, plan, cloud::pos_profile(),
                        recovery_options(), noise);
  };
  const ExecutionReport a = run_once();
  const ExecutionReport b = run_once();
  ASSERT_EQ(a.instance_count(), b.instance_count());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.relaunches, b.relaunches);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_DOUBLE_EQ(a.recovery_time.value(), b.recovery_time.value());
  EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id.value, b.outcomes[i].id.value);
    EXPECT_EQ(a.outcomes[i].failures, b.outcomes[i].failures);
    EXPECT_EQ(a.outcomes[i].relaunches, b.outcomes[i].relaunches);
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_DOUBLE_EQ(a.outcomes[i].work_time.value(),
                     b.outcomes[i].work_time.value());
    EXPECT_DOUBLE_EQ(a.outcomes[i].recovery_time.value(),
                     b.outcomes[i].recovery_time.value());
  }
  EXPECT_EQ(a.cost, b.cost);
}

// --- Data-plane fault tolerance -------------------------------------------

cloud::ProviderConfig transfer_faulty_config(double p_error,
                                             double p_corruption = 0.0) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.p_transfer_error = p_error;
  config.faults.p_transfer_corruption = p_corruption;
  return config;
}

TEST_F(ExecutorFixture, ZeroDataFaultsLeaveTransferCountersZero) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  const ExecutionReport report = execute_plan(
      provider, plan, cloud::pos_profile(), ExecutionOptions{}, noise);
  EXPECT_EQ(report.transfer_retries, 0u);
  EXPECT_DOUBLE_EQ(report.transfer_retry_time.value(), 0.0);
  EXPECT_EQ(report.corruptions_detected, 0u);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_EQ(o.transfer_retries, 0);
    EXPECT_DOUBLE_EQ(o.retrieval.value(), 0.0);
  }
}

TEST_F(ExecutorFixture, FlakyStagingRetriesAndStillCompletes) {
  cloud::CloudProvider provider(sim, Rng(7), transfer_faulty_config(0.4));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.transfer_retry.max_attempts = 8;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GT(report.transfer_retries, 0u);
  EXPECT_GT(report.transfer_retry_time.value(), 0.0);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
  }
}

TEST_F(ExecutorFixture, CertainTransferFailureAbandonsWithStructuredError) {
  cloud::CloudProvider provider(sim, Rng(7), transfer_faulty_config(1.0));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.transfer_retry.max_attempts = 3;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_EQ(report.abandoned, report.instance_count());
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_FALSE(o.completed);
    EXPECT_NE(o.error.find("staging transfer failed"), std::string::npos)
        << o.error;
  }
  // Each instance ran for its failed staging attempts, so each is billed
  // at least its first hour.
  EXPECT_GT(report.cost.amount(), 0.0);
  EXPECT_GE(report.instance_hours,
            static_cast<double>(report.instance_count()));
}

TEST_F(ExecutorFixture, CrashWhileAbandoningDoesNotRecountTheAssignment) {
  // Every staging transfer fails, and instances crash about a second into
  // their run: most crash inside the failed staging window.  The crash is
  // an instance failure, but the abandoned assignment is not recovered,
  // re-failed or abandoned a second time.
  cloud::ProviderConfig config = transfer_faulty_config(1.0);
  config.faults.crash_rate_per_hour = 3600.0;
  cloud::CloudProvider provider(sim, Rng(7), config);
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.transfer_retry.max_attempts = 3;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_GT(report.failures, 0u);
  EXPECT_EQ(report.abandoned, report.instance_count());
  EXPECT_EQ(report.relaunches, 0u);
  EXPECT_EQ(report.redistributions, 0u);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_FALSE(o.completed);
    EXPECT_EQ(o.failures, 0u);
    EXPECT_NE(o.error.find("staging transfer failed"), std::string::npos)
        << o.error;
  }
}

TEST_F(ExecutorFixture, CorruptionIsDetectedAndRetriedDuringStaging) {
  cloud::CloudProvider provider(sim, Rng(7),
                                transfer_faulty_config(0.0, 0.3));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.transfer_retry.max_attempts = 8;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GT(report.corruptions_detected, 0u);
}

TEST_F(ExecutorFixture, OutputRatioChargesRetrievalAgainstTheDeadline) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.output_ratio = 0.2;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_GT(o.retrieval.value(), 0.0);
    EXPECT_GE(o.work_time, o.retrieval);
  }

  // Same seed without retrieval: the makespan must be strictly shorter.
  sim::Simulation sim2;
  cloud::CloudProvider provider2(sim2, Rng(7), uniform_config());
  Rng noise2(1);
  const ExecutionReport without = execute_plan(
      provider2, plan, cloud::pos_profile(), ExecutionOptions{}, noise2);
  EXPECT_GT(report.makespan.value(), without.makespan.value());
}

TEST_F(ExecutorFixture, RetrievalRetriesThroughAFlakyChannel) {
  cloud::CloudProvider provider(sim, Rng(7), transfer_faulty_config(0.3));
  const ExecutionPlan plan = uniform_plan(small_gig(), 1_h);
  Rng noise(1);
  ExecutionOptions options;
  options.output_ratio = 0.2;
  // One result object per input file: a budget of 12 leaves each object
  // a 0.3^12 (~5e-7) chance of exhausting it.
  options.transfer_retry.max_attempts = 12;
  const ExecutionReport report =
      execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GT(report.transfer_retries, 0u);
  for (const InstanceOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_GT(o.retrieval.value(), 0.0);
  }
}

TEST_F(ExecutorFixture, DataPlaneFaultRunsReplayBitIdentically) {
  const corpus::Corpus data = small_gig();
  const ExecutionPlan plan = uniform_plan(data, 1_h);
  auto run_once = [&]() {
    sim::Simulation local_sim;
    cloud::CloudProvider provider(local_sim, Rng(101),
                                  transfer_faulty_config(0.3, 0.05));
    Rng noise(9);
    ExecutionOptions options;
    options.output_ratio = 0.1;
    options.transfer_retry.max_attempts = 8;
    return execute_plan(provider, plan, cloud::pos_profile(), options, noise);
  };
  const ExecutionReport a = run_once();
  const ExecutionReport b = run_once();
  ASSERT_EQ(a.instance_count(), b.instance_count());
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_DOUBLE_EQ(a.transfer_retry_time.value(),
                   b.transfer_retry_time.value());
  EXPECT_EQ(a.corruptions_detected, b.corruptions_detected);
  EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].transfer_attempts, b.outcomes[i].transfer_attempts);
    EXPECT_DOUBLE_EQ(a.outcomes[i].retrieval.value(),
                     b.outcomes[i].retrieval.value());
  }
}

TEST_F(ExecutorFixture, EmptyPlanThrows) {
  cloud::CloudProvider provider(sim, Rng(7), uniform_config());
  ExecutionPlan plan;
  Rng noise(1);
  EXPECT_THROW((void)execute_plan(provider, plan, cloud::pos_profile(),
                                  ExecutionOptions{}, noise),
               Error);
}

}  // namespace
}  // namespace reshape::provision
