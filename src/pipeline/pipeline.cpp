#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <vector>

#include "cloud/app_profile.hpp"
#include "cloud/provider.hpp"
#include "cloud/workload.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "provision/controller.hpp"
#include "reshape/merge.hpp"
#include "sim/simulation.hpp"

namespace reshape::pipeline {

Report run(const Config& config) {
  Report out;
  const Rng root(config.seed);

  // Corpus.
  Rng corpus_rng = root.split("corpus");
  const corpus::FileSizeDistribution dist =
      config.corpus == CorpusKind::kHtml ? corpus::html_18mil_sizes()
                                         : corpus::text_400k_sizes();
  const corpus::Corpus data =
      corpus::Corpus::generate(dist, config.files, corpus_rng, 0.15, 1000);
  out.corpus = {dist.name(), data.file_count(), data.total_volume(),
                data.mean_file_size()};

  // Reshape.
  {
    const pack::MergedCorpus merged = pack::merge_to_unit(data, config.unit);
    RESHAPE_REQUIRE(merged.total_volume() == data.total_volume(),
                    "the merged blocks must hold the corpus volume");
    out.blocks = merged.block_count();
    out.unit = merged.unit;
    out.fill = merged.fill_factor();
  }

  // Probe + model on a screened instance.
  const cloud::AppCostProfile app = config.app == App::kGrep
                                        ? cloud::grep_profile()
                                        : cloud::pos_profile();
  sim::Simulation sim;
  cloud::CloudProvider ec2(sim, root.split("cloud"), cloud::ProviderConfig{});
  const cloud::AvailabilityZone zone{cloud::Region::kUsEast, 0};
  const auto acq = ec2.acquire_screened(cloud::InstanceType::kSmall, zone);
  out.screen_attempts = acq.attempts;

  Rng noise = root.split("noise");
  std::vector<double> xs, ys;
  const Bytes probe_base =
      std::min(data.total_volume() / 10, Bytes(500'000'000));
  for (int k = 1; k <= 5; ++k) {
    const Bytes v = probe_base * static_cast<std::uint64_t>(k);
    const corpus::Corpus head = data.take_volume(v);
    // POS runs on the original files (merging does not help it, Fig. 7),
    // so its probes keep them too.
    const cloud::DataLayout layout =
        config.app == App::kPos
            ? cloud::DataLayout::original(head.total_volume(),
                                          head.file_count(),
                                          head.mean_file_size())
            : cloud::DataLayout::reshaped(head.total_volume(), config.unit);
    RunningStats reps;
    for (int r = 0; r < 5; ++r) {
      reps.add(cloud::run_time(app, layout, ec2.instance(acq.id),
                               cloud::LocalStorage{}, noise)
                   .value());
    }
    xs.push_back(head.total_volume().as_double());
    ys.push_back(reps.mean());
  }
  // The probes are growing heads of the corpus, so their volumes never
  // fall; on a corpus of a few files they all take the same files, and
  // the fit would see one volume.
  RESHAPE_REQUIRE(xs.front() < xs.back(),
                  "the corpus is too small to probe: all five probe volumes "
                  "hold the same files");
  out.predictor = model::Predictor::fit(xs, ys);

  // Plan.
  provision::PlanOptions plan_options;
  plan_options.deadline = config.deadline;
  plan_options.strategy = config.strategy;
  plan_options.residuals = model::relative_residuals(out.predictor, xs, ys);
  out.plan = provision::plan(out.predictor, data, plan_options);
  RESHAPE_REQUIRE(out.plan.total_volume() == data.total_volume(),
                  "the plan must cover the corpus volume exactly");

  // Execute.
  sim::Simulation exec_sim;
  cloud::ProviderConfig fleet_config;
  fleet_config.mixture = cloud::screened_fleet_mixture();
  cloud::CloudProvider fleet(exec_sim, root.split("fleet"), fleet_config);
  Rng run_noise = root.split("runs");
  provision::ExecutionOptions exec;
  exec.reshaped_unit = config.app == App::kGrep ? config.unit : Bytes(0);
  if (config.dynamic) {
    // §3.1 monitoring: the elastic controller checks the fleet every
    // deadline/6 and hedges lagging instances.
    provision::ElasticOptions elastic;
    elastic.epoch = config.deadline / 6.0;
    provision::CampaignReport campaign = provision::run_campaign(
        fleet, out.plan, app, exec, elastic, run_noise);
    out.execution = std::move(campaign.execution);
    out.campaign = CampaignSummary{campaign.epochs.size(),
                                   campaign.hedges_launched,
                                   campaign.speculative_wins};
  } else {
    out.execution =
        provision::execute_plan(fleet, out.plan, app, exec, run_noise);
  }
  RESHAPE_REQUIRE(out.execution.instance_count() == out.plan.instance_count(),
                  "the run must report one outcome per planned instance");
  return out;
}

}  // namespace reshape::pipeline
