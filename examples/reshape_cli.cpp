// reshape_cli — a command-line driver for the whole pipeline.
//
// Usage:
//   reshape_cli [--corpus html|text] [--files N] [--unit BYTES]
//               [--deadline SECONDS] [--strategy firstfit|uniform|adjusted]
//               [--app grep|pos] [--seed N] [--dynamic]
//
// Parses the flags into a pipeline::Config, runs pipeline::run (corpus,
// reshape, screen, probe + fit, plan, execute on a simulated fleet) and
// prints one line per stage.  Every run is reproducible from its --seed.
// Exits 1 when any unit was late, 2 on a usage error or an infeasible plan.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "pipeline/pipeline.hpp"
#include "reshape/binpack.hpp"

using namespace reshape;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--corpus html|text] [--files N] [--unit BYTES]\n"
      "          [--deadline SECONDS] [--strategy firstfit|uniform|adjusted]\n"
      "          [--app grep|pos] [--seed N] [--dynamic]\n",
      argv0);
  std::exit(2);
}

pipeline::Config parse(int argc, char** argv) {
  pipeline::Config options;
  std::string corpus = "text";
  std::string app = "grep";
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
      corpus = value();
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
      app = value();
    } else if (arg == "--seed") {
      number(options.seed);
    } else if (arg == "--dynamic") {
      options.dynamic = true;
    } else {
      usage(argv[0]);
    }
  }
  if (corpus != "html" && corpus != "text") usage(argv[0]);
  if (app != "grep" && app != "pos") usage(argv[0]);
  options.corpus = corpus == "html" ? pipeline::CorpusKind::kHtml
                                    : pipeline::CorpusKind::kText;
  options.app = app == "grep" ? pipeline::App::kGrep : pipeline::App::kPos;
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

/// Prints one line per stage; exits 1 when any unit was late.
int print(const pipeline::Report& r) {
  std::printf("[corpus] %s: %zu files, %s, mean file %s\n",
              r.corpus.name.c_str(), r.corpus.files,
              r.corpus.volume.str().c_str(), r.corpus.mean_file.str().c_str());
  std::printf("[reshape] %zu blocks of <= %s (fill %.1f%%)\n", r.blocks,
              r.unit.str().c_str(), 100.0 * r.fill);
  std::printf("[screen] accepted instance after %d attempt(s)\n",
              r.screen_attempts);
  std::printf("[model] %s\n", r.predictor.affine().str().c_str());
  std::printf("[plan] %s: %zu instances, %s per instance, predicted "
              "makespan %s, predicted cost %s\n",
              to_string(r.plan.strategy).data(), r.plan.instance_count(),
              r.plan.per_instance_target.str().c_str(),
              r.plan.predicted_makespan.str().c_str(),
              r.plan.predicted_cost.str().c_str());
  if (r.campaign) {
    std::printf("[dynamic] %zu epoch(s), %zu hedge(s), %zu won by the "
                "hedge\n",
                r.campaign->epochs, r.campaign->hedges,
                r.campaign->hedge_wins);
  }
  // One late-unit rule for both modes (the executor's `missed`).
  const std::size_t missed = r.execution.late_units();
  std::printf("[run] makespan %s, missed %zu/%zu, %.0f instance-hours, %s\n",
              r.execution.makespan.str().c_str(), missed,
              r.execution.instance_count(), r.execution.instance_hours,
              r.execution.cost.str().c_str());
  return missed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const pipeline::Config config = parse(argc, argv);
  try {
    return print(pipeline::run(config));
  } catch (const Error& e) {
    // Valid flags can still ask for an infeasible plan, e.g. a deadline
    // below the largest file's processing time.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
