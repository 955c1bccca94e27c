// End-to-end observability contract, checked on a real seeded campaign:
//
//  1. Determinism — the same seeded faulty run, recorded twice, exports a
//     byte-identical Chrome trace and metrics snapshot.
//  2. Schema — the exported trace is well-formed Chrome trace-event JSON
//     (parseable, known phases, integral sim-time stamps).
//  3. Passivity — recording on vs off does not change a single number in
//     the execution report (the registry backs the report's counters, so
//     this also pins the dedup refactor).
//
// All of these drive the *global* recorder, so they skip when the build
// compiled the recording sites out (RESHAPE_OBS=OFF); the unit tests in
// test_trace.cpp / test_metrics.cpp still cover the types there.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/faults.hpp"
#include "cloud/provider.hpp"
#include "corpus/distribution.hpp"
#include "json_lite.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"
#include "sim/simulation.hpp"

namespace reshape::provision {
namespace {

namespace json = reshape::testjson;

corpus::Corpus small_gig() {
  Rng rng(1);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 60'000, rng);
  return all.take_volume(200_MB);
}

ExecutionPlan uniform_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  return planner.plan(data, options);
}

cloud::FaultModel storm() {
  cloud::FaultModel faults;
  faults.p_boot_failure = 0.15;
  faults.crash_rate_per_hour = 1.0;
  faults.spot_interruption_rate_per_hour = 0.25;
  faults.p_ebs_degradation = 0.3;
  faults.p_transfer_error = 0.1;
  return faults;
}

ExecutionReport run_campaign(const ExecutionPlan& plan,
                             const cloud::FaultModel& faults) {
  sim::Simulation sim;
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults = faults;
  cloud::CloudProvider ec2(sim, Rng(404), config);
  ExecutionOptions options;
  options.data_on_ebs = true;
  options.relaunch_threshold = Rate::megabytes_per_second(55.0);
  options.max_relaunches = 10;
  options.output_ratio = 0.1;
  Rng noise(17);
  return execute_plan(ec2, plan, cloud::grep_profile(), options, noise);
}

struct Recorded {
  ExecutionReport report;
  std::string trace_json;
  std::string metrics_json;
};

Recorded record_campaign(const ExecutionPlan& plan,
                         const cloud::FaultModel& faults) {
  obs::reset();
  obs::set_enabled(true);
  Recorded out;
  out.report = run_campaign(plan, faults);
  obs::set_enabled(false);
  out.trace_json = obs::trace().to_chrome_json();
  out.metrics_json = obs::metrics().to_json();
  obs::reset();
  return out;
}

TEST(ObsIntegrationTest, SeededFaultyRunReplaysToIdenticalArtifacts) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = uniform_plan(small_gig());
  const Recorded a = record_campaign(plan, storm());
  const Recorded b = record_campaign(plan, storm());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.report.failures, b.report.failures);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
}

TEST(ObsIntegrationTest, CampaignTraceIsWellFormedChromeJson) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = uniform_plan(small_gig());
  const Recorded rec = record_campaign(plan, storm());

  const json::Value doc = json::parse(rec.trace_json);
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const json::Array& events = doc.at("traceEvents").as_array();
  // A faulty campaign must leave a real footprint: boots, transfers,
  // failures.  (The exact count is pinned by the determinism test.)
  EXPECT_GT(events.size(), 20u);
  std::size_t spans = 0, instants = 0;
  bool saw_boot = false, saw_transfer = false;
  for (const json::Value& e : events) {
    const std::string& ph = e.at("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    if (ph == "X") {
      ++spans;
      const double ts = e.at("ts").number;
      const double dur = e.at("dur").number;
      EXPECT_EQ(ts, static_cast<double>(static_cast<long long>(ts)));
      EXPECT_GE(dur, 0.0);
      if (e.at("name").string == "boot") saw_boot = true;
      if (e.at("cat").string == "transfer") saw_transfer = true;
    }
    if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").string, "t");
    }
  }
  EXPECT_GT(spans, 0u);
  EXPECT_GT(instants, 0u);
  EXPECT_TRUE(saw_boot);
  EXPECT_TRUE(saw_transfer);

  // The metrics snapshot agrees with the report on the headline counts.
  const json::Value metrics = json::parse(rec.metrics_json);
  const json::Value& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("executor.failures").number,
            static_cast<double>(rec.report.failures));
  EXPECT_EQ(counters.at("executor.redistributions").number,
            static_cast<double>(rec.report.redistributions));
}

TEST(ObsIntegrationTest, RecordingDoesNotPerturbTheReport) {
  const ExecutionPlan plan = uniform_plan(small_gig());

  const ExecutionReport off = run_campaign(plan, storm());
  ExecutionReport on;
  if (obs::compiled_in()) {
    on = record_campaign(plan, storm()).report;
  } else {
    on = run_campaign(plan, storm());
  }

  EXPECT_EQ(off.failures, on.failures);
  EXPECT_EQ(off.relaunches, on.relaunches);
  EXPECT_EQ(off.redistributions, on.redistributions);
  EXPECT_EQ(off.abandoned, on.abandoned);
  EXPECT_EQ(off.missed, on.missed);
  EXPECT_EQ(off.transfer_retries, on.transfer_retries);
  EXPECT_EQ(off.corruptions_detected, on.corruptions_detected);
  EXPECT_DOUBLE_EQ(off.recovery_time.value(), on.recovery_time.value());
  EXPECT_DOUBLE_EQ(off.transfer_retry_time.value(),
                   on.transfer_retry_time.value());
  EXPECT_DOUBLE_EQ(off.makespan.value(), on.makespan.value());
  EXPECT_DOUBLE_EQ(off.cost.amount(), on.cost.amount());
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t i = 0; i < off.outcomes.size(); ++i) {
    EXPECT_EQ(off.outcomes[i].completed, on.outcomes[i].completed);
    EXPECT_EQ(off.outcomes[i].failures, on.outcomes[i].failures);
    EXPECT_DOUBLE_EQ(off.outcomes[i].exec_time.value(),
                     on.outcomes[i].exec_time.value());
  }
}

TEST(ObsIntegrationTest, BenignRunRecordsNoFailureEvents) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = uniform_plan(small_gig());
  const Recorded rec = record_campaign(plan, cloud::FaultModel{});
  const json::Value metrics = json::parse(rec.metrics_json);
  const json::Value& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("executor.failures").number, 0.0);
  EXPECT_EQ(counters.at("instance.launches").number,
            static_cast<double>(plan.instance_count()));
  // Every span in a benign trace still parses; no crash instants appear.
  const json::Value doc = json::parse(rec.trace_json);
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").string == "i") {
      EXPECT_NE(e.at("name").string, "crash");
    }
  }
}

}  // namespace
}  // namespace reshape::provision
