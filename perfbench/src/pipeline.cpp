// pipeline family: reshape_cli passes, and a replay of its stage sequence.
//
// One step is one pass of the production entry point,
// `reshape_cli --corpus html --files N --seed S` (plus `--deadline` at
// probe scale), run as a child process and timed from spawn to exit.
// After the timed window the family replays the CLI's stages through the
// same public functions, in the same order and with the same seeds, so it
// can
//   * rebuild the CLI's stage lines (a mismatch flags the per-stage split
//     as diverged);
//   * check what the CLI does not print: block bytes sum to the corpus
//     volume, the plan covers the corpus volume exactly, and the report
//     has one outcome per planned instance;
//   * time every stage in a span (the traced run's per-layer split);
//   * judge plan quality over `--fits` screened probe instances and
//     kDraws fleet draws in all.  Stream 0 and draw 0 are the CLI's own; one fit
//     and one fleet of 8 instances are too few for an error estimate that
//     is steady from seed to seed.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cloud/app_profile.hpp"
#include "cloud/provider.hpp"
#include "cloud/workload.hpp"
#include "common/stats.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"
#include "reshape/merge.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace reshape;

// The CLI's defaults for `reshape_cli --corpus html --files N --seed S`.
constexpr Bytes kUnit = 10_MB;

/// Full scale is HTML_18mil as reshape_cli runs it by default (grep, 10 MB
/// unit, uniform, 30-min deadline).  The probe shrinks the corpus and the
/// deadline together so the plan still spans several instances and still
/// misses some deadlines.  `fits` is the number of screened probe
/// instances the plan-quality average runs over; each costs one plan.
struct Scale {
  std::size_t files;
  double deadline_s;
  bool deadline_flag;  // pass --deadline to the CLI
  std::size_t fits;
  int warmups;  // set-up passes at kWarmupFiles
};
constexpr Scale kFull{18'000'000, 1800.0, false, 8, 3};
constexpr Scale kProbe{1'000'000, 300.0, true, 32, 1};
constexpr std::size_t kWarmupFiles = 1'000'000;
// Fleet draws the plan-quality metrics average over, across all fits.
constexpr std::size_t kDraws = 256;

/// The stage spans, in CLI order; their sum must cover the pass.
const char* const kStages[] = {"corpus.generate", "reshape.merge_to_unit",
                               "model.screen",    "model.probe",
                               "model.fit",       "plan.plan",
                               "executor.execute_plan"};

struct Replay {
  double wall_s = 0.0;
  std::size_t files = 0;
  std::size_t blocks = 0;
  double fill_frac = 0.0;
  double corpus_rss_mb = 0.0;
  int screen_attempts = 0;
  std::size_t instances = 0;
  double makespan_error = 0.0;
  double miss_frac = 0.0;
  double cost = 0.0;
  std::vector<std::string> lines;
};

std::string line(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Replays the CLI's pass.  The base (untraced) replay also judges plan
/// quality.
Replay replay(std::uint64_t seed, const Scale& scale, Tracer& tracer,
              Result& result, bool base) {
  Replay out;
  std::vector<std::string>& lines = out.lines;
  const Rng root(seed);
  const double t_pass = now_s();

  Rng corpus_rng = root.split("corpus");
  const corpus::FileSizeDistribution dist = corpus::html_18mil_sizes();
  const double rss0 = rss_mb();
  const corpus::Corpus data = tracer.span("corpus.generate", [&] {
    return corpus::Corpus::generate(dist, scale.files, corpus_rng, 0.15,
                                    1000);
  });
  out.corpus_rss_mb = rss_mb() - rss0;
  lines.push_back(line("[corpus] %s: %zu files, %s, mean file %s",
                       dist.name().c_str(), data.file_count(),
                       data.total_volume().str().c_str(),
                       data.mean_file_size().str().c_str()));

  const pack::MergedCorpus merged = tracer.span(
      "reshape.merge_to_unit", [&] { return pack::merge_to_unit(data, kUnit); });
  lines.push_back(line("[reshape] %zu blocks of <= %s (fill %.1f%%)",
                       merged.block_count(), merged.unit.str().c_str(),
                       100.0 * merged.fill_factor()));

  const cloud::AppCostProfile app = cloud::grep_profile();
  sim::Simulation sim;
  cloud::CloudProvider ec2(sim, root.split("cloud"), cloud::ProviderConfig{});
  const cloud::AvailabilityZone zone{cloud::Region::kUsEast, 0};
  const auto acq = tracer.span("model.screen", [&] {
    return ec2.acquire_screened(cloud::InstanceType::kSmall, zone);
  });
  lines.push_back(
      line("[screen] accepted instance after %d attempt(s)", acq.attempts));

  // Probe + fit, and plan, as the CLI does them; re-run below on other
  // screened instances for the plan-quality average.
  const auto probe = [&](cloud::CloudProvider& provider, cloud::InstanceId id,
                         Rng noise) {
    std::vector<double> xs, ys;
    const Bytes probe_base =
        std::min(data.total_volume() / 10, Bytes(500'000'000));
    for (int k = 1; k <= 5; ++k) {
      const Bytes v = probe_base * static_cast<std::uint64_t>(k);
      const corpus::Corpus head = data.take_volume(v);
      const cloud::DataLayout layout =
          cloud::DataLayout::reshaped(head.total_volume(), kUnit);
      RunningStats reps;
      for (int r = 0; r < 5; ++r) {
        reps.add(cloud::run_time(app, layout, provider.instance(id),
                                 cloud::LocalStorage{}, noise)
                     .value());
      }
      xs.push_back(head.total_volume().as_double());
      ys.push_back(reps.mean());
    }
    return std::make_pair(xs, ys);
  };
  const auto fit = [](const std::pair<std::vector<double>, std::vector<double>>& xy) {
    const model::Predictor p = model::Predictor::fit(xy.first, xy.second);
    return std::make_pair(p, model::relative_residuals(p, xy.first, xy.second));
  };
  const auto make_plan = [&](const std::pair<model::Predictor,
                                             model::RelativeResiduals>& f) {
    provision::PlanOptions plan_options;
    plan_options.deadline = Seconds(scale.deadline_s);
    plan_options.strategy = provision::PackingStrategy::kUniform;
    plan_options.residuals = f.second;
    return provision::StaticPlanner(f.first).plan(data, plan_options);
  };

  const auto xy = tracer.span(
      "model.probe", [&] { return probe(ec2, acq.id, root.split("noise")); });
  const auto fitted = tracer.span("model.fit", [&] { return fit(xy); });
  lines.push_back(line("[model] %s", fitted.first.affine().str().c_str()));
  const provision::ExecutionPlan plan =
      tracer.span("plan.plan", [&] { return make_plan(fitted); });
  lines.push_back(line(
      "[plan] %s: %zu instances, %s per instance, predicted makespan %s, "
      "predicted cost %s",
      to_string(plan.strategy).data(), plan.instance_count(),
      plan.per_instance_target.str().c_str(),
      plan.predicted_makespan.str().c_str(),
      plan.predicted_cost.str().c_str()));

  provision::ExecutionOptions exec;
  exec.reshaped_unit = kUnit;
  const auto execute = [&](const provision::ExecutionPlan& p, Rng fleet_rng,
                           Rng run_noise) {
    sim::Simulation exec_sim;
    cloud::ProviderConfig fleet_config;
    fleet_config.mixture = cloud::screened_fleet_mixture();
    cloud::CloudProvider fleet(exec_sim, fleet_rng, fleet_config);
    return provision::execute_plan(fleet, p, app, exec, run_noise);
  };
  const provision::ExecutionReport report =
      tracer.span("executor.execute_plan", [&] {
        return execute(plan, root.split("fleet"), root.split("runs"));
      });
  lines.push_back(line("[run] makespan %s, missed %zu/%zu, %.0f "
                       "instance-hours, %s",
                       report.makespan.str().c_str(), report.missed,
                       report.instance_count(), report.instance_hours,
                       report.cost.str().c_str()));
  out.wall_s = now_s() - t_pass;

  // Output checks the CLI's lines cannot show.
  Bytes block_bytes{0};
  for (const pack::Bin& bin : merged.blocks) block_bytes += bin.used;
  result.check(block_bytes == data.total_volume(),
               "pipeline: block bytes != corpus volume");
  result.check(plan.total_volume() == data.total_volume(),
               "pipeline: plan volume != corpus volume");
  result.check(report.instance_count() == plan.instance_count(),
               "pipeline: report instances != plan instances");
  ++result.attempted;

  out.files = data.file_count();
  out.blocks = merged.block_count();
  out.fill_frac = block_bytes.as_double() /
                  (static_cast<double>(merged.block_count()) * kUnit.as_double());
  out.screen_attempts = acq.attempts;
  out.instances = plan.instance_count();

  if (!base) return out;

  // Plan quality: `fits` screened probe instances (fit 0 is the CLI's),
  // each planned and executed on draws/fits fleets (fleet 0 of fit 0 is
  // the CLI's).  The probed instance's quality sets the fit's slope, so
  // one instance per seed is too few.  Spans are off: this is not part of
  // the CLI's pass.
  double err = 0.0, miss = 0.0, cost = 0.0;
  const std::size_t fits = std::max<std::size_t>(1, scale.fits);
  const std::size_t per_fit = std::max<std::size_t>(1, kDraws / fits);
  // A stream whose screening gives up (no stable fast instance within the
  // CLI's attempt budget) is skipped, as a user would re-run the probe.
  std::size_t used = 0;
  for (std::uint64_t stream = 0; used < fits && stream < 4 * fits; ++stream) {
    std::optional<provision::ExecutionPlan> p;
    if (stream == 0) {
      p = plan;
    } else {
      sim::Simulation probe_sim;
      cloud::CloudProvider provider(probe_sim, root.split("cloud").split(stream),
                                    cloud::ProviderConfig{});
      try {
        const auto screened =
            provider.acquire_screened(cloud::InstanceType::kSmall, zone);
        p = make_plan(fit(
            probe(provider, screened.id, root.split("noise").split(stream))));
      } catch (const std::exception&) {
        continue;
      }
    }
    for (std::size_t k = 0; k < per_fit; ++k) {
      const std::uint64_t draw = used * per_fit + k;
      const provision::ExecutionReport r =
          draw == 0 ? report
                    : execute(*p, root.split("fleet").split(draw),
                              root.split("runs").split(draw));
      const double actual = r.makespan.value();
      err += std::abs(actual - p->predicted_makespan.value()) / actual;
      miss += static_cast<double>(r.missed) /
              static_cast<double>(r.instance_count());
      cost += r.cost.amount();
    }
    ++used;
  }
  const double n = static_cast<double>(used * per_fit);
  out.makespan_error = err / n;
  out.miss_frac = miss / n;
  out.cost = cost / n;
  return out;
}

/// What one reshape_cli pass showed.
struct CliPass {
  int exit_code = -1;
  double wall_s = 0.0;
  double maxrss_mb = 0.0;
  std::vector<std::string> lines;  // the stage lines, "[...]" prefixed
};

/// Runs `argv` to completion with stdout in `out_path`; wall time from
/// spawn to reaped exit, and the child's peak RSS.
CliPass run_cli(const std::vector<std::string>& argv,
                const std::string& out_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  CliPass pass;
  const double t0 = now_s();
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) throw std::runtime_error("cannot start " + argv[0]);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed for " + argv[0]);
  }
  pass.wall_s = now_s() - t0;
  pass.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pass.maxrss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  std::ifstream in(out_path);
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] == '[') pass.lines.push_back(l);
  }
  return pass;
}

class Pipeline final : public Family {
 public:
  explicit Pipeline(const Options& options)
      : options_(options), scale_(options.full ? kFull : kProbe) {}

  void setup() override {
    // Warm-up passes of the CLI on a smaller corpus; the median counts.
    std::vector<double> walls;
    for (int i = 0; i < scale_.warmups; ++i) {
      const CliPass p = run_cli(argv(kWarmupFiles, false), out_path());
      // Exit 1 means "deadlines missed", not a failure.
      result_.check(p.exit_code == 0 || p.exit_code == 1,
                    "pipeline: warm-up exit " + std::to_string(p.exit_code));
      walls.push_back(p.wall_s);
    }
    setup_s_ = median(walls);
  }

  void step(Tracer&, bool) override {
    CliPass p = run_cli(argv(scale_.files, scale_.deadline_flag), out_path());
    ++result_.attempted;
    result_.check(p.exit_code == 0 || p.exit_code == 1,
                  "pipeline: reshape_cli exit " + std::to_string(p.exit_code));
    static const std::regex plan_re(R"(^\[plan\] \S+: (\d+) instances)");
    static const std::regex run_re(R"(^\[run\] .* missed \d+/(\d+))");
    std::string planned, ran;
    for (const std::string& l : p.lines) {
      std::smatch m;
      if (std::regex_search(l, m, plan_re)) planned = m[1];
      if (std::regex_search(l, m, run_re)) ran = m[1];
    }
    result_.check(p.lines.size() == 6 && !planned.empty() && planned == ran,
                  "pipeline: CLI plan/run instance counts disagree");
    result_.check(passes_.empty() || p.lines == passes_.front().lines,
                  "pipeline: CLI output differs between passes");
    passes_.push_back(std::move(p));
  }

  [[nodiscard]] std::size_t steps() const override { return passes_.size(); }

  // The replay runs no library code that records; the CLI is its own
  // process.
  void record_obs() override {}

  Result finish(const Tracer& tracer) override;

 private:
  std::vector<std::string> argv(std::size_t files, bool deadline) const {
    std::vector<std::string> a = {options_.cli,        "--corpus", "html",
                                  "--files",           std::to_string(files),
                                  "--seed",            std::to_string(options_.seed)};
    if (deadline) {
      a.push_back("--deadline");
      a.push_back(std::to_string(static_cast<long>(scale_.deadline_s)));
    }
    return a;
  }
  std::string out_path() const { return options_.out_dir + "/cli.out"; }

  Options options_;
  Scale scale_;
  double setup_s_ = 0.0;
  std::vector<CliPass> passes_;
  Result result_;
};

Result Pipeline::finish(const Tracer&) {
  Result result = std::move(result_);
  result.setup_s = setup_s_;
  std::vector<double> walls;
  for (const CliPass& p : passes_) {
    walls.push_back(p.wall_s);
    result.peak_rss_mb = std::max(result.peak_rss_mb, p.maxrss_mb);
  }
  // The fastest pass.  Each pass is a whole process, three of 5-6 s at
  // full scale and ~9 at probe scale, and the host's interference only
  // ever adds time to one: over the same runs the fastest pass spread
  // about half as much (quartile distance / median) as the median pass.
  result.metric("pipeline_s", *std::min_element(walls.begin(), walls.end()),
                "s");
  std::string cli;
  for (const std::string& a : argv(scale_.files, scale_.deadline_flag)) {
    cli += (cli.empty() ? "" : " ") + (a == options_.cli ? "reshape_cli" : a);
  }
  result.info["cli"] = cli;
  result.info["passes"] = std::to_string(passes_.size());
  std::string pass_walls;
  for (const double w : walls) pass_walls += std::to_string(w) + " ";
  result.info["pass_walls_s"] = pass_walls;

  Tracer off(false);
  const Replay base = replay(options_.seed, scale_, off, result, /*base=*/true);
  result.metric("makespan_error", base.makespan_error, "ratio");
  result.metric("deadline_miss_frac", base.miss_frac, "ratio");
  result.metric("cost_usd", base.cost, "USD");
  result.info["fits"] = std::to_string(scale_.fits);
  result.info["draws"] = std::to_string(kDraws);
  result.info["replay_wall_s"] = std::to_string(base.wall_s);
  // The replay must rebuild the CLI's stage lines; when it does not, the
  // per-stage split no longer describes what the CLI runs.
  const bool diverged = base.lines != passes_.front().lines;
  if (diverged) {
    std::fprintf(stderr,
                 "pipeline: replayed stage lines differ from reshape_cli's; "
                 "the per-stage split has diverged\n");
  }
  if (!options_.trace) return result;

  Tracer tracer(true);
  const Replay traced = replay(options_.seed, scale_, tracer, result, /*base=*/false);
  double covered = 0.0;
  for (const char* stage : kStages) covered += tracer.total_s(stage);
  result.layer("corpus.generate_s", tracer.self_s("corpus.generate"), "s");
  result.layer("corpus.files", static_cast<double>(traced.files), "count");
  result.layer("corpus.rss_mb", base.corpus_rss_mb, "MB");
  result.layer("reshape.merge_s", tracer.self_s("reshape.merge_to_unit"), "s");
  result.layer("reshape.blocks", static_cast<double>(traced.blocks), "count");
  result.layer("reshape.fill_frac", traced.fill_frac, "ratio");
  result.layer("model.screen_s", tracer.self_s("model.screen"), "s");
  result.layer("model.screen_attempts",
               static_cast<double>(traced.screen_attempts), "count");
  result.layer("model.probe_s", tracer.self_s("model.probe"), "s");
  result.layer("model.fit_s", tracer.self_s("model.fit"), "s");
  result.layer("plan.plan_s", tracer.self_s("plan.plan"), "s");
  result.layer("plan.instances", static_cast<double>(traced.instances),
               "count");
  result.layer("pipeline.execute_s", tracer.self_s("executor.execute_plan"),
               "s");
  result.layer("pipeline.stage_cover_frac", covered / traced.wall_s, "ratio");
  result.layer("pipeline.split_diverged", diverged ? 1.0 : 0.0, "count");
  result.layer("obs.trace_overhead_frac", traced.wall_s / base.wall_s - 1.0,
               "ratio");
  if (covered / traced.wall_s < 0.95) {
    std::fprintf(stderr, "pipeline: stage spans cover only %.1f%% of the pass\n",
                 100.0 * covered / traced.wall_s);
  }
  tracer.write_json(options_.out_dir + "/spans-pipeline.json");
  return result;
}

}  // namespace

std::unique_ptr<Family> make_pipeline(const Options& options) {
  return std::make_unique<Pipeline>(options);
}

}  // namespace perfbench
