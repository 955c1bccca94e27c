// Pins both campaign drivers' outcomes on the 500-unit storm world that
// perfbench's campaign_storm workload times: the POS slack plan (~600 s
// units judged against a 1 h deadline) over the HTML_18mil size mix,
// corpus seed 1, world seed 23, default ExecutionOptions and
// ElasticOptions.  At this size the controller's 64-member fleet cap
// forces shed-lowest-value degradation in every storm cell, so the shed
// set is the controller's most sensitive output.  The fixture is rebuilt
// here (not linked from perfbench).  The pinned values are the drivers'
// outputs on this world; a refactor of either driver must reproduce them
// bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/digest.hpp"
#include "corpus/distribution.hpp"
#include "provision/controller.hpp"

namespace reshape::provision {
namespace {

constexpr std::size_t kUnits = 500;
constexpr std::uint64_t kCorpusSeed = 1;
constexpr std::uint64_t kWorldSeed = 23;

model::Predictor eq3_predictor() {
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(0.327 + 0.865e-4 * v);
  }
  return model::Predictor::fit(xs, ys);
}

/// HTML_18mil sizes cut to the volume of `kUnits` slack-plan units;
/// files above one unit's capacity cannot be placed and are left out.
const ExecutionPlan& storm_plan() {
  static const ExecutionPlan plan = [] {
    Rng rng = Rng(kCorpusSeed).split("campaign");
    const corpus::Corpus all = corpus::Corpus::generate(
        corpus::html_18mil_sizes(), kUnits * 175, rng);
    const Bytes per_unit = eq3_predictor().max_volume_within(Seconds(600.0));
    std::vector<corpus::VirtualFile> placeable;
    for (const corpus::VirtualFile& f : all.files()) {
      if (f.size <= per_unit) placeable.push_back(f);
    }
    const corpus::Corpus data =
        corpus::Corpus(std::move(placeable))
            .take_volume(Bytes(static_cast<std::uint64_t>(
                (static_cast<double>(kUnits) - 0.5) * per_unit.as_double())));
    const StaticPlanner planner(eq3_predictor());
    PlanOptions options;
    options.deadline = Seconds(600.0);
    options.strategy = PackingStrategy::kUniform;
    ExecutionPlan p = planner.plan(data, options);
    p.deadline = 1_h;
    return p;
  }();
  return plan;
}

struct Cell {
  const char* name;
  cloud::FaultModel faults;
};

std::vector<Cell> storm_cells() {
  std::vector<Cell> cells;
  cells.push_back(Cell{"calm", {}});
  Cell az{"az-outage", {}};
  az.faults.p_az_outage = 0.7;
  az.faults.az_outage_spread = Seconds(600.0);
  az.faults.az_outage_mean = Seconds(7200.0);
  cells.push_back(az);
  Cell spot{"spot-wave", {}};
  spot.faults.spot_interruption_rate_per_hour = 12.0;
  cells.push_back(spot);
  Cell crash{"crash-storm", {}};
  crash.faults.crash_rate_per_hour = 10.0;
  cells.push_back(crash);
  return cells;
}

cloud::ProviderConfig cell_config(const Cell& cell) {
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults = cell.faults;
  return config;
}

std::uint64_t shed_digest(const std::vector<std::size_t>& shed) {
  Digest64 digest;
  for (const std::size_t unit : shed) digest.update_u64(unit);
  return digest.value();
}

TEST(CampaignStormPin, PlanHasFiveHundredUnits) {
  EXPECT_EQ(storm_plan().instance_count(), kUnits);
}

struct ControllerPin {
  const char* cell;
  std::size_t units_shed;
  std::uint64_t shed_digest;
  std::size_t epochs;
};

struct ExecutorPin {
  const char* cell;
  double cost;
  std::size_t missed;
};

constexpr ControllerPin kControllerPins[] = {
    {"calm", 0, 0xcbf29ce484222325ull, 2},
    {"az-outage", 253, 0xf2fa1697e27cbbacull, 12},
    {"spot-wave", 342, 0xd109c14c3b60aa64ull, 8},
    {"crash-storm", 236, 0x4adc303e0c8c3558ull, 10},
};
constexpr ExecutorPin kExecutorPins[] = {
    {"calm", 0x1.540000000003p+5, 0},
    {"az-outage", 0x1.540000000003p+5, 1},
    {"spot-wave", 0x1.7cccccccccb46p+8, 398},
    {"crash-storm", 0x1.5accccccccbd6p+8, 358},
};

TEST(CampaignStormPin, ControllerShedsTheRecordedUnits) {
  const std::vector<Cell> cells = storm_cells();
  ASSERT_EQ(cells.size(), std::size(kControllerPins));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ControllerPin& pin = kControllerPins[i];
    ASSERT_STREQ(cells[i].name, pin.cell);
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(kWorldSeed),
                                  cell_config(cells[i]));
    Rng noise(kWorldSeed + 1000);
    const CampaignReport report =
        run_campaign(provider, storm_plan(), cloud::pos_profile(),
                     ExecutionOptions{}, ElasticOptions{}, noise);
    EXPECT_EQ(report.units_shed, pin.units_shed) << pin.cell;
    EXPECT_EQ(shed_digest(report.shed_units), pin.shed_digest) << pin.cell;
    EXPECT_EQ(report.epochs.size(), pin.epochs) << pin.cell;
  }
}

TEST(CampaignStormPin, ExecutorCostsAndMissesTheRecordedAmounts) {
  const std::vector<Cell> cells = storm_cells();
  ASSERT_EQ(cells.size(), std::size(kExecutorPins));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ExecutorPin& pin = kExecutorPins[i];
    ASSERT_STREQ(cells[i].name, pin.cell);
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(kWorldSeed),
                                  cell_config(cells[i]));
    Rng noise(kWorldSeed + 1000);
    const ExecutionReport report =
        execute_plan(provider, storm_plan(), cloud::pos_profile(),
                     ExecutionOptions{}, noise);
    // Exact: a refactor must not move a single bit of the bill.
    EXPECT_EQ(report.cost.amount(), pin.cost) << pin.cell;
    EXPECT_EQ(report.missed, pin.missed) << pin.cell;
  }
}

}  // namespace
}  // namespace reshape::provision
