// Golden-report test for the campaign doctor on the doomed world from
// the controller suite: a certain AZ outage plus a zero acquisition
// budget, so no instance ever boots and the first 60 s epoch sheds every
// unit.  That world is fully deterministic, which lets the test pin the
// doctor's two headline conclusions — the dominant phase is acquisition
// (every unit spent its whole life waiting for a boot) and the
// degradation decision was shed-lowest-value — and the byte-identity of
// the rendered report across runs.
//
// Drives the global recorder, so it skips under -DRESHAPE_OBS=OFF.

#include "obs/profile/doctor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/distribution.hpp"
#include "json_lite.hpp"
#include "obs/profile/trace_index.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/controller.hpp"

namespace reshape::provision {
namespace {

namespace json = reshape::testjson;
namespace profile = reshape::obs::profile;

corpus::Corpus data_40mb() {
  Rng rng(1);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng);
  return all.take_volume(40_MB);
}

ExecutionPlan slack_plan(const corpus::Corpus& data) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(600.0);
  options.strategy = PackingStrategy::kUniform;
  ExecutionPlan plan = planner.plan(data, options);
  plan.deadline = 1_h;
  return plan;
}

cloud::ProviderConfig doomed_config() {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
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

struct Diagnosed {
  profile::DoctorReport report;
  std::string text;
  std::string json_text;
  std::size_t units = 0;
};

Diagnosed diagnose_doomed(const ExecutionPlan& plan) {
  obs::reset();
  obs::set_enabled(true);
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(5), doomed_config());
  Rng noise(3);
  const CampaignReport campaign =
      run_campaign(provider, plan, cloud::pos_profile(), ExecutionOptions{},
                   doomed_options(), noise);
  obs::set_enabled(false);

  Diagnosed out;
  out.units = campaign.execution.outcomes.size();
  const auto index = profile::TraceIndex::from_recorder(obs::trace());
  profile::DoctorOptions options;
  options.deadline_us = obs::to_trace_us(plan.deadline.value());
  out.report = diagnose(index, provider.cost_records(sim.now()), options);
  out.text = out.report.to_text();
  out.json_text = out.report.to_json();
  obs::reset();
  return out;
}

TEST(CampaignDoctorTest, DoomedWorldBlamesAcquisitionAndNamesTheShed) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = slack_plan(data_40mb());
  const Diagnosed d = diagnose_doomed(plan);

  // The two headline conclusions the doctor must reach.
  EXPECT_EQ(d.report.dominant_phase, "acquisition");
  EXPECT_EQ(d.report.degradation, "shed-lowest-value");

  // Every unit was shed at the first 60 s epoch, and every unit missed.
  ASSERT_GT(d.units, 0u);
  EXPECT_EQ(d.report.shed, d.units);
  EXPECT_EQ(d.report.done, 0u);
  EXPECT_EQ(d.report.misses.size(), d.units);
  ASSERT_EQ(d.report.path.units.size(), d.units);
  for (const profile::UnitProfile& unit : d.report.path.units) {
    EXPECT_EQ(unit.resolution, profile::UnitResolution::kShed);
    EXPECT_EQ(unit.attempts, 0u);
    EXPECT_EQ(unit.blame, profile::Phase::kAcquisition);
    // The whole 60 s life is acquisition wait.
    EXPECT_EQ(unit.resolved_at_us, 60'000'000);
    EXPECT_EQ(unit.total_us(),
              unit.phase_us[static_cast<std::size_t>(
                  profile::Phase::kAcquisition)]);
  }
  for (const profile::MissExplanation& miss : d.report.misses) {
    EXPECT_EQ(miss.blame, profile::Phase::kAcquisition);
    EXPECT_NE(miss.verdict.find("blame acquisition"), std::string::npos)
        << miss.verdict;
  }

  // Failed boots in dead zones are free: nothing was billed.
  EXPECT_DOUBLE_EQ(d.report.cost.total, 0.0);
  EXPECT_EQ(d.report.cost.free_failed_boots,
            d.report.cost.failed_instances);

  // Golden fragments of the rendered report.
  EXPECT_NE(d.text.find("dominant phase: acquisition"), std::string::npos);
  EXPECT_NE(d.text.find("degradation: shed-lowest-value"),
            std::string::npos);
  EXPECT_NE(d.text.find("acquisition        360.000s  100.0%"),
            std::string::npos);
  EXPECT_NE(d.text.find("window: 0.000s .. 60.000s"), std::string::npos);
}

TEST(CampaignDoctorTest, ReportRendersByteIdenticallyAcrossRuns) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = slack_plan(data_40mb());
  const Diagnosed a = diagnose_doomed(plan);
  const Diagnosed b = diagnose_doomed(plan);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.json_text, b.json_text);
}

TEST(CampaignDoctorTest, JsonReportParsesAndAgreesWithTheStruct) {
  if (!obs::compiled_in()) GTEST_SKIP() << "recording sites compiled out";
  const ExecutionPlan plan = slack_plan(data_40mb());
  const Diagnosed d = diagnose_doomed(plan);

  const json::Value doc = json::parse(d.json_text);
  EXPECT_EQ(doc.at("dominant_phase").string, "acquisition");
  EXPECT_EQ(doc.at("degradation").string, "shed-lowest-value");
  EXPECT_EQ(doc.at("units").at("shed").number,
            static_cast<double>(d.report.shed));
  EXPECT_EQ(doc.at("misses").as_array().size(), d.report.misses.size());
  EXPECT_EQ(doc.at("decisions").as_array().size(),
            d.report.decisions.size());
  // The blame table covers every phase and sums to the swept time.
  const json::Value& phases = doc.at("phases");
  double sum = 0.0;
  for (std::size_t p = 0; p < profile::kPhaseCount; ++p) {
    sum += phases.at(std::string(
        profile::to_string(static_cast<profile::Phase>(p)))).number;
  }
  double struct_sum = 0.0;
  for (const std::int64_t us : d.report.path.phase_us) {
    struct_sum += static_cast<double>(us) / 1e6;
  }
  EXPECT_NEAR(sum, struct_sum, 1e-6);
}

}  // namespace
}  // namespace reshape::provision
