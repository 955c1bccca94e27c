// reshape_cli — a command-line driver for the whole pipeline.
//
// Usage:
//   reshape_cli [--corpus html|text] [--files N] [--unit BYTES]
//               [--deadline SECONDS] [--strategy firstfit|uniform|adjusted]
//               [--app grep|pos] [--seed N] [--dynamic]
//
// Generates a corpus, reshapes it, probes a screened instance, fits the
// model, plans the deadline and executes on a simulated fleet — printing
// each stage.  Every run is reproducible from its --seed.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cloud/app_profile.hpp"
#include "cloud/provider.hpp"
#include "cloud/workload.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "provision/controller.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"
#include "reshape/merge.hpp"
#include "sim/simulation.hpp"

using namespace reshape;

namespace {

struct CliOptions {
  std::string corpus = "text";
  std::size_t files = 100'000;
  Bytes unit = 10_MB;
  Seconds deadline{1800.0};
  provision::PackingStrategy strategy = provision::PackingStrategy::kUniform;
  std::string app = "grep";
  std::uint64_t seed = 1;
  bool dynamic = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--corpus html|text] [--files N] [--unit BYTES]\n"
      "          [--deadline SECONDS] [--strategy firstfit|uniform|adjusted]\n"
      "          [--app grep|pos] [--seed N] [--dynamic]\n",
      argv0);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // The whole value must be a number: "5x", "abc", "10MB" and "-1" are
    // usage errors, not 5, 0, 10 and 2^64-1.
    auto number = [&](auto& into) {
      const std::string text = value();
      const char* end = text.data() + text.size();
      const auto [stop, ec] = std::from_chars(text.data(), end, into);
      if (ec != std::errc{} || stop != end) usage(argv[0]);
    };
    if (arg == "--corpus") {
      options.corpus = value();
    } else if (arg == "--files") {
      number(options.files);
    } else if (arg == "--unit") {
      std::uint64_t unit = 0;
      number(unit);
      options.unit = Bytes(unit);
    } else if (arg == "--deadline") {
      double deadline = 0.0;
      number(deadline);
      options.deadline = Seconds(deadline);
    } else if (arg == "--strategy") {
      const std::string s = value();
      if (s == "firstfit") {
        options.strategy = provision::PackingStrategy::kFirstFit;
      } else if (s == "uniform") {
        options.strategy = provision::PackingStrategy::kUniform;
      } else if (s == "adjusted") {
        options.strategy = provision::PackingStrategy::kAdjusted;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--app") {
      options.app = value();
    } else if (arg == "--seed") {
      number(options.seed);
    } else if (arg == "--dynamic") {
      options.dynamic = true;
    } else {
      usage(argv[0]);
    }
  }
  if (options.corpus != "html" && options.corpus != "text") usage(argv[0]);
  if (options.app != "grep" && options.app != "pos") usage(argv[0]);
  // The packers index bins with 32 bits; reject a larger corpus here,
  // before it reaches the allocator.
  if (options.files == 0 || options.files > pack::kMaxInputs ||
      options.unit.count() == 0 ||
      !std::isfinite(options.deadline.value()) ||
      options.deadline.value() <= 0.0) {
    usage(argv[0]);
  }
  return options;
}

int run(const CliOptions& cli) {
  const Rng root(cli.seed);

  // Corpus.
  Rng corpus_rng = root.split("corpus");
  const corpus::FileSizeDistribution dist = cli.corpus == "html"
                                                ? corpus::html_18mil_sizes()
                                                : corpus::text_400k_sizes();
  const corpus::Corpus data =
      corpus::Corpus::generate(dist, cli.files, corpus_rng, 0.15, 1000);
  std::printf("[corpus] %s: %zu files, %s, mean file %s\n",
              dist.name().c_str(), data.file_count(),
              data.total_volume().str().c_str(),
              data.mean_file_size().str().c_str());

  // Reshape.
  const pack::MergedCorpus merged = pack::merge_to_unit(data, cli.unit);
  std::printf("[reshape] %zu blocks of <= %s (fill %.1f%%)\n",
              merged.block_count(), merged.unit.str().c_str(),
              100.0 * merged.fill_factor());

  // Probe + model on a screened instance.
  const cloud::AppCostProfile app =
      cli.app == "grep" ? cloud::grep_profile() : cloud::pos_profile();
  sim::Simulation sim;
  cloud::CloudProvider ec2(sim, root.split("cloud"), cloud::ProviderConfig{});
  const cloud::AvailabilityZone zone{cloud::Region::kUsEast, 0};
  const auto acq = ec2.acquire_screened(cloud::InstanceType::kSmall, zone);
  std::printf("[screen] accepted instance after %d attempt(s)\n",
              acq.attempts);

  Rng noise = root.split("noise");
  std::vector<double> xs, ys;
  const Bytes probe_base =
      std::min(data.total_volume() / 10, Bytes(500'000'000));
  for (int k = 1; k <= 5; ++k) {
    const Bytes v = probe_base * static_cast<std::uint64_t>(k);
    const bool keep_original = cli.app == "pos";
    const corpus::Corpus head = data.take_volume(v);
    const cloud::DataLayout layout =
        keep_original
            ? cloud::DataLayout::original(head.total_volume(),
                                          head.file_count(),
                                          head.mean_file_size())
            : cloud::DataLayout::reshaped(head.total_volume(), cli.unit);
    RunningStats reps;
    for (int r = 0; r < 5; ++r) {
      reps.add(cloud::run_time(app, layout, ec2.instance(acq.id),
                               cloud::LocalStorage{}, noise)
                   .value());
    }
    xs.push_back(head.total_volume().as_double());
    ys.push_back(reps.mean());
  }
  const model::Predictor predictor = model::Predictor::fit(xs, ys);
  const model::RelativeResiduals residuals =
      model::relative_residuals(predictor, xs, ys);
  std::printf("[model] %s\n", predictor.affine().str().c_str());

  // Plan.
  provision::StaticPlanner planner(predictor);
  provision::PlanOptions plan_options;
  plan_options.deadline = cli.deadline;
  plan_options.strategy = cli.strategy;
  plan_options.residuals = residuals;
  const provision::ExecutionPlan plan = planner.plan(data, plan_options);
  std::printf("[plan] %s: %zu instances, %s per instance, predicted "
              "makespan %s, predicted cost %s\n",
              to_string(plan.strategy).data(), plan.instance_count(),
              plan.per_instance_target.str().c_str(),
              plan.predicted_makespan.str().c_str(),
              plan.predicted_cost.str().c_str());

  // Execute.
  sim::Simulation exec_sim;
  cloud::ProviderConfig fleet_config;
  fleet_config.mixture = cloud::screened_fleet_mixture();
  cloud::CloudProvider fleet(exec_sim, root.split("fleet"), fleet_config);
  Rng run_noise = root.split("runs");
  provision::ExecutionOptions exec;
  exec.reshaped_unit = cli.app == "grep" ? cli.unit : Bytes(0);
  provision::ExecutionReport report;
  if (cli.dynamic) {
    // §3.1 monitoring: the elastic controller checks the fleet every
    // deadline/6 and hedges lagging instances.
    provision::ElasticOptions elastic;
    elastic.epoch = cli.deadline / 6.0;
    const provision::CampaignReport campaign =
        provision::run_campaign(fleet, plan, app, exec, elastic, run_noise);
    report = campaign.execution;
    std::printf("[dynamic] %zu epoch(s), %zu hedge(s), %zu won by the "
                "hedge\n",
                campaign.epochs.size(), campaign.hedges_launched,
                campaign.speculative_wins);
  } else {
    report = provision::execute_plan(fleet, plan, app, exec, run_noise);
  }
  // One late-unit rule for both modes (the executor's `missed`).
  const std::size_t missed = report.late_units();
  std::printf("[run] makespan %s, missed %zu/%zu, %.0f instance-hours, %s\n",
              report.makespan.str().c_str(), missed,
              report.instance_count(), report.instance_hours,
              report.cost.str().c_str());
  return missed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse(argc, argv);
  try {
    return run(cli);
  } catch (const Error& e) {
    // Valid flags can still ask for an infeasible plan, e.g. a deadline
    // below the largest file's processing time.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
