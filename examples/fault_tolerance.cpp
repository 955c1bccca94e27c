// Fault-tolerant plan execution: the same grep campaign run on a benign
// cloud and on one that injects boot failures, mid-run crashes and
// spot-style interruptions.
//
// The recovery loop leans on the paper's §1.1/§7 EBS observations: each
// assignment's data lives on a persistent volume, so when its instance
// dies the volume is re-attached to a replacement (screened per §4) or
// the remainder is chained onto a surviving instance with slack —
// whichever is projected to finish sooner.  Every run is seeded, so a
// failure scenario can be replayed bit-identically.
//
// Run:  ./fault_tolerance
//       ./fault_tolerance --trace trace.json --metrics metrics.json
//
// With --trace, the seeded faulty campaign is re-run with recording on
// and exported as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing).  With --metrics, the run's counter/histogram
// snapshot is written as JSON.  Recording never touches the tables
// above: the flagged run happens after them, on its own recorder state.

#include <cstdio>
#include <string>
#include <vector>

#include "cloud/app_profile.hpp"
#include "cloud/faults.hpp"
#include "cloud/provider.hpp"
#include "common/table.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "obs/recorder.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"
#include "sim/simulation.hpp"

using namespace reshape;

namespace {

provision::ExecutionReport run_campaign(const provision::ExecutionPlan& plan,
                                        const cloud::FaultModel& faults) {
  sim::Simulation sim;
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults = faults;
  cloud::CloudProvider ec2(sim, Rng(404), config);
  provision::ExecutionOptions options;
  options.data_on_ebs = true;
  // The uniform fleet benches writes at 65 * 0.92 MB/s; screen just below.
  options.relaunch_threshold = Rate::megabytes_per_second(55.0);
  options.max_relaunches = 10;
  Rng noise(17);
  return provision::execute_plan(ec2, plan, cloud::grep_profile(), options,
                                 noise);
}

/// One campaign on a control-plane-clean cloud whose *data plane* injects
/// transient S3 errors at `p_error`, with staging and result retrieval
/// retried under a budget of `max_attempts`.
provision::ExecutionReport run_data_plane(const provision::ExecutionPlan& plan,
                                          double p_error, int max_attempts) {
  sim::Simulation sim;
  cloud::ProviderConfig config;
  config.mixture = cloud::uniform_fast_mixture();
  config.faults.p_transfer_error = p_error;
  cloud::CloudProvider ec2(sim, Rng(404), config);
  provision::ExecutionOptions options;
  options.output_ratio = 0.1;  // grep-like result volume, retrieved via S3
  options.transfer_retry.max_attempts = max_attempts;
  Rng noise(17);
  return provision::execute_plan(ec2, plan, cloud::grep_profile(), options,
                                 noise);
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

  Rng corpus_rng(7);
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 120'000, corpus_rng);
  const corpus::Corpus data = all.take_volume(400_MB);

  const provision::StaticPlanner planner(model::eq3_predictor());
  provision::PlanOptions plan_options;
  plan_options.deadline = 1_h;
  plan_options.strategy = provision::PackingStrategy::kUniform;
  const provision::ExecutionPlan plan = planner.plan(data, plan_options);
  std::printf("plan: %zu instances, deadline %s\n\n", plan.instance_count(),
              plan.deadline.str().c_str());

  cloud::FaultModel storm;
  storm.p_boot_failure = 0.15;
  storm.crash_rate_per_hour = 1.0;
  storm.spot_interruption_rate_per_hour = 0.25;
  storm.p_ebs_degradation = 0.3;

  Table table({"cloud", "failures", "relaunch", "redistrib", "abandoned",
               "recovery", "makespan", "missed", "cost"});
  for (const auto& [label, faults] :
       {std::pair<const char*, cloud::FaultModel>{"benign", {}},
        std::pair<const char*, cloud::FaultModel>{"faulty", storm}}) {
    const provision::ExecutionReport r = run_campaign(plan, faults);
    table.add_row({label, std::to_string(r.failures),
                   std::to_string(r.relaunches),
                   std::to_string(r.redistributions),
                   std::to_string(r.abandoned), r.recovery_time.str(),
                   r.makespan.str(), std::to_string(r.missed),
                   r.cost.str()});
  }
  std::printf("%s", table.str().c_str());

  // Replay determinism: the same seed reproduces the same failure story.
  const provision::ExecutionReport once = run_campaign(plan, storm);
  const provision::ExecutionReport again = run_campaign(plan, storm);
  std::printf("\nreplay check: failures %zu == %zu, makespan %s == %s\n",
              once.failures, again.failures, once.makespan.str().c_str(),
              again.makespan.str().c_str());

  std::printf("\nper-assignment outcomes (faulty cloud):\n");
  for (const provision::InstanceOutcome& o : once.outcomes) {
    std::printf("  #%zu  %s  failures=%zu relaunches=%zu recovery=%s%s\n",
                o.index, o.completed ? "done " : "ABANDONED", o.failures,
                o.relaunches, o.recovery_time.str().c_str(),
                o.error.empty() ? "" : ("  (" + o.error + ")").c_str());
  }

  // Data-plane sweep: transient S3 error rate crossed with the retry
  // budget.  A budget of 1 means no retries — staging fails outright once
  // errors appear; a modest budget absorbs high error rates at the cost
  // of retry time charged against the deadline.
  std::printf("\ndata-plane frontier (S3 error rate x retry budget):\n");
  Table sweep({"p_error", "budget", "retries", "retry-time", "abandoned",
               "makespan", "missed", "cost"});
  for (const double p_error : {0.0, 0.05, 0.15, 0.30}) {
    for (const int budget : {1, 2, 4, 8}) {
      const provision::ExecutionReport r =
          run_data_plane(plan, p_error, budget);
      sweep.add_row({fmt(p_error, 2), std::to_string(budget),
                     std::to_string(r.transfer_retries),
                     r.transfer_retry_time.str(),
                     std::to_string(r.abandoned), r.makespan.str(),
                     std::to_string(r.missed), r.cost.str()});
    }
  }
  std::printf("%s", sweep.str().c_str());

  // Observability export: replay the seeded faulty campaign once more
  // with recording on.  Spans are stamped in simulated time, so this
  // trace is byte-identical across runs of the same binary and seed.
  return session.record([&] { (void)run_campaign(plan, storm); });
}
