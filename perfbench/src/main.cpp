// perfbench_driver — one workload of the end-to-end benchmark.
//
// Usage:
//   perfbench_driver --own <pipeline|campaign|text|serve> --cli PATH
//                    [--seed N] [--seconds S] [--trace] [--out-dir DIR]
//
// Every family of work is set up, the workload's own family at full scale
// and the other three as small probes.  Then, for --seconds, the driver
// interleaves their steps: each next step goes to the family furthest
// behind its share of the time (kOwnShare for the own family, the rest
// split evenly), so every family's samples are spread over the whole run.
// A family's timings are medians over its samples.  Each step runs pinned
// to the next CPU in rotation (see pin_next_cpu in bench.hpp); steps that
// start threads unpin themselves.  After the window the
// families check their outputs and report; stdout ends with one JSON
// object per family (see bench.hpp Result), which perfbench/run.py merges
// into the benchmark's result line.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

using namespace perfbench;

namespace {

const char* const kFamilies[] = {"pipeline", "campaign", "text", "serve"};
constexpr double kOwnShare = 0.4;
// Steps every family takes even past the window: a median needs a few,
// and a traced run needs untraced and traced steps of every kind.
constexpr std::size_t kMinSteps = 3;
constexpr std::size_t kMinTracedSteps = 6;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --own <pipeline|campaign|text|serve> --cli PATH "
               "[--seed N] [--seconds S] [--trace] [--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

std::unique_ptr<Family> make(const std::string& name, const Options& options) {
  if (name == "pipeline") return make_pipeline(options);
  if (name == "campaign") return make_campaign(options);
  if (name == "text") return make_text(options);
  return make_serve(options);
}

}  // namespace

int main(int argc, char** argv) {
  std::string own;
  Options options;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--own") {
      own = value();
    } else if (arg == "--cli") {
      options.cli = value();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      usage(argv[0]);
    }
  }
  bool known = false;
  for (const char* f : kFamilies) known = known || own == f;
  if (!known || options.cli.empty()) usage(argv[0]);

  struct Slot {
    std::string name;
    std::unique_ptr<Family> family;
    double share = 0.0;
    double used_s = 0.0;
    Tracer tracer;
  };
  std::vector<Slot> slots;
  std::vector<Result> results;
  (void)process_cpus();
  try {
    // Probes first, the own family last: its set-up is the one reported.
    for (const char* name : kFamilies) {
      if (name == own) continue;
      Options o = options;
      o.full = false;
      slots.push_back({name, make(name, o), (1.0 - kOwnShare) / 3.0, 0.0,
                       Tracer(options.trace)});
    }
    Options o = options;
    o.full = true;
    slots.push_back({own, make(own, o), kOwnShare, 0.0, Tracer(options.trace)});
    for (Slot& s : slots) {
      std::fprintf(stderr, "perfbench_driver: set up %s\n", s.name.c_str());
      s.family->setup();
    }

    const double t_start = now_s();
    for (;;) {
      const double left = seconds - (now_s() - t_start);
      Slot* next = nullptr;
      for (Slot& s : slots) {
        const std::size_t n = s.family->steps();
        // Pipeline steps are CLI processes, never traced.
        const std::size_t min_steps = options.trace && s.name != "pipeline"
                                          ? kMinTracedSteps
                                          : kMinSteps;
        // A family whose mean step would overrun the window steps no more,
        // once it has its minimum.
        const bool fits = n == 0 || s.used_s / static_cast<double>(n) <= left;
        if (n >= min_steps && (left <= 0.0 || !fits)) continue;
        if (next == nullptr || s.used_s / s.share < next->used_s / next->share) {
          next = &s;
        }
      }
      if (next == nullptr) break;
      const bool traced = options.trace && next->family->steps() % 2 == 1;
      pin_next_cpu();
      const double t0 = now_s();
      next->family->step(next->tracer, traced);
      next->used_s += now_s() - t0;
    }
    unpin();
    std::fprintf(stderr, "perfbench_driver: measured %.1f s\n",
                 now_s() - t_start);

    // The library's own recording is on only for one untimed step per
    // family: it would inflate the timings and the spans.
    if (options.trace) {
      reshape::obs::reset();
      reshape::obs::set_enabled(true);
      for (Slot& s : slots) s.family->record_obs();
      reshape::obs::set_enabled(false);
    }
    for (Slot& s : slots) {
      results.push_back(s.family->finish(s.tracer));
      results.back().family = s.name;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  std::string obs_path;
  if (options.trace && reshape::obs::compiled_in()) {
    obs_path = options.out_dir + "/obs-metrics.json";
    if (!reshape::obs::metrics().write_json(obs_path)) obs_path.clear();
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    Result& r = results[i];
    r.info["steps"] = std::to_string(slots[i].family->steps());
    r.info["busy_s"] = std::to_string(slots[i].used_s);
    r.info["obs_compiled_in"] = reshape::obs::compiled_in() ? "ON" : "OFF";
    r.info["build_type"] = PERFBENCH_BUILD_TYPE;
    r.info["compiler"] = PERFBENCH_COMPILER " " __VERSION__;
    if (!obs_path.empty()) r.info["obs_metrics"] = obs_path;
    // The workload's process: the CLI for the pipeline, else this one.
    if (r.family != "pipeline") {
      r.peak_rss_mb = static_cast<double>(self.ru_maxrss) * 1024.0 / 1e6;
    }
    r.print();
  }
  return 0;
}
