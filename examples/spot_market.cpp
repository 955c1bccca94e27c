// Spot instances: cost/availability trade-off across bid levels, then a
// deadline campaign riding spot capacity through a reclaim wave.
//
// §1.1 introduces spot instances as the cost-over-time alternative the
// paper sets aside because its workloads are deadline-driven.  Act 1
// quantifies the trade: a week-long horizon, a sweep of bids, and the
// compute obtained, dollars paid and interruptions suffered at each
// level — versus the on-demand flat rate.
//
// Act 2 shows what changes the calculus: an elastic campaign controller
// (DESIGN.md "Elastic control loop") that absorbs the reclaim wave.  The
// same deadline workload runs twice on an identical world where spot
// reclaims arrive at a mean of 12/hour — once under the paper's static
// one-shot fleet (bounded same-zone relaunches), once under epoch
// re-planning with cross-AZ replacement.  The closing frontier table is
// the deadline-hit-rate-vs-cost trade the controller buys back.
//
// Run:  ./spot_market
//       ./spot_market --trace chaos.json --metrics metrics.json
//
// With --trace, the act-2 elastic campaign is re-run with recording on
// and exported as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing): per-instance lifecycle tracks, per-unit
// staging/exec spans, and the controller's epoch / hedge-launched /
// unit-shed instants.  Spans are stamped in simulated time, so the file
// is byte-identical across runs.

#include <cstdio>
#include <string>

#include "cloud/spot.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "corpus/distribution.hpp"
#include "obs/recorder.hpp"
#include "provision/controller.hpp"

using namespace reshape;

namespace {

std::size_t deadline_hits(const provision::ExecutionReport& report) {
  std::size_t n = 0;
  for (const provision::InstanceOutcome& o : report.outcomes) {
    if (o.met_deadline) ++n;
  }
  return n;
}

provision::CampaignReport run_elastic_once(
    const provision::ExecutionPlan& plan,
    const cloud::ProviderConfig& config) {
  sim::Simulation sim;
  cloud::CloudProvider provider(sim, Rng(23), config);
  Rng noise(1023);
  return provision::run_campaign(provider, plan, cloud::pos_profile(),
                                 provision::ExecutionOptions{},
                                 provision::ElasticOptions{}, noise);
}

int spot_reclaim_campaign(const obs::Session& session) {
  std::printf(
      "== act 2: a deadline campaign through a spot reclaim wave ==\n\n");

  // ~600 s work units against a 1 h campaign deadline: the slack is what
  // the recovery policy gets to spend.
  Rng rng(1);
  const corpus::Corpus data =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 20'000, rng)
          .take_volume(40_MB);
  const provision::StaticPlanner planner(model::eq3_predictor());
  provision::PlanOptions options;
  options.deadline = Seconds(600.0);
  options.strategy = provision::PackingStrategy::kUniform;
  provision::ExecutionPlan plan = planner.plan(data, options);
  plan.deadline = 1_h;

  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.spot_interruption_rate_per_hour = 12.0;

  std::printf("plan: %zu units x ~%s, deadline %s, reclaims ~12/hour\n\n",
              plan.instance_count(),
              plan.assignments.front().volume.str().c_str(),
              plan.deadline.str().c_str());

  // The paper's static fleet: launch once, relaunch in place, give up
  // when the screening budget exhausts.
  provision::ExecutionReport st;
  {
    sim::Simulation sim;
    cloud::CloudProvider provider(sim, Rng(23), config);
    Rng noise(1023);
    st = provision::execute_plan(provider, plan, cloud::pos_profile(),
                                 provision::ExecutionOptions{}, noise);
  }

  // The elastic controller on the identical world: epoch re-plans,
  // straggler hedging, cross-AZ escapes, graceful degradation.
  const provision::CampaignReport el = run_elastic_once(plan, config);

  std::printf("controller: %zu epochs, %zu acquisitions, %zu cross-AZ "
              "moves, %zu units shed\n\n",
              el.epochs.size(), el.acquisitions, el.cross_az_moves,
              el.units_shed);

  // The frontier: what each extra dollar of elasticity bought.
  Table t({"policy", "deadline hits", "hit rate", "cost", "makespan",
           "relaunches"});
  std::size_t st_relaunches = 0;
  for (const provision::InstanceOutcome& o : st.outcomes) {
    st_relaunches += o.relaunches;
  }
  const double st_units = static_cast<double>(st.outcomes.size());
  t.add("static one-shot",
        std::to_string(deadline_hits(st)) + "/" +
            std::to_string(st.outcomes.size()),
        fmt(100.0 * static_cast<double>(deadline_hits(st)) / st_units, 0) +
            "%",
        st.cost, st.makespan, st_relaunches);
  t.add("elastic epochs",
        std::to_string(deadline_hits(el.execution)) + "/" +
            std::to_string(el.execution.outcomes.size()),
        fmt(100.0 * el.deadline_hit_rate(), 0) + "%", el.execution.cost,
        el.execution.makespan, el.acquisitions);
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "the static fleet loses its reclaimed slots for good; the elastic\n"
      "controller re-plans each epoch and re-homes interrupted units\n"
      "(cross-AZ when a zone looks suspect), trading a modest cost\n"
      "overshoot for the deadline.\n");

  // Observability export: replay the elastic campaign once more with
  // recording on.  Spans are stamped in simulated time, so the trace is
  // byte-identical across runs of the same binary.
  return session.record([&] { (void)run_elastic_once(plan, config); });
}

}  // namespace

int main(int argc, char** argv) {
  obs::Session session;
  for (int i = 1; i < argc; ++i) {
    if (!session.take(argc, argv, i)) {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--metrics out.json]\n",
                   argv[0]);
      return 2;
    }
  }
  const cloud::SpotMarket market(Rng(404).split("spot"),
                                 cloud::SpotMarketModel{});
  const Seconds horizon = Seconds(7.0 * 24.0 * 3600.0);

  std::printf("== act 1: the bid sweep ==\n\n");
  std::printf("spot price path (first 24 h, long-run mean %s):\n",
              market.model().mean.str().c_str());
  for (std::uint64_t h = 0; h < 24; ++h) {
    const double price = market.price_at_hour(h).amount();
    std::printf("  h%02llu %6.3f ", static_cast<unsigned long long>(h),
                price);
    const int bars = static_cast<int>(price * 600);
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }
  std::printf("\n");

  Table t({"bid", "compute obtained", "availability", "cost",
           "eff. $/hour", "interruptions", "vs on-demand"});
  const double horizon_hours = horizon.hours();
  for (const double bid : {0.02, 0.03, 0.04, 0.05, 0.08, 0.12}) {
    const cloud::SpotOutcome out =
        cloud::simulate_bid(market, Dollars(bid), horizon);
    const double hours = out.compute.hours();
    const double eff = hours > 0.0 ? out.cost.amount() / hours : 0.0;
    const double on_demand = hours * 0.085;
    t.add(Dollars(bid), Seconds(out.compute),
          fmt(100.0 * hours / horizon_hours, 1) + "%", out.cost,
          Dollars(eff), out.interruptions,
          on_demand > 0.0 ? fmt(100.0 * out.cost.amount() / on_demand, 0) + "%"
                          : "-");
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "deadline work wants on-demand (the paper's choice); bulk\n"
      "interruptible work at a mean-level bid pays roughly half the\n"
      "on-demand rate at the cost of interruptions.\n\n");

  return spot_reclaim_campaign(session);
}
