// The whole pipeline as one call: generate a corpus, reshape it into
// merge units, screen a probe instance (§4), probe and fit the
// volume→time model, plan the deadline fleet (§5) and execute the plan on
// the simulated EC2, statically or under the elastic controller (§3.1).
//
// run() is a pure function of its Config: every random stream is split
// from Rng(seed) under a fixed label ("corpus", "cloud", "noise", "fleet",
// "runs"), so two runs of one Config give identical Reports.
// examples/reshape_cli is a flag parser and a printer around it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "model/predictor.hpp"
#include "provision/executor.hpp"
#include "provision/planner.hpp"

namespace reshape::pipeline {

/// The corpus's file-size distribution: HTML_18mil or Text_400K.
enum class CorpusKind { kHtml, kText };
/// The application the fleet runs: grep over reshaped units, or POS
/// tagging over the original files.
enum class App { kGrep, kPos };

struct Config {
  CorpusKind corpus = CorpusKind::kText;
  std::size_t files = 100'000;
  Bytes unit = 10_MB;
  Seconds deadline{1800.0};
  provision::PackingStrategy strategy = provision::PackingStrategy::kUniform;
  App app = App::kGrep;
  std::uint64_t seed = 1;
  /// Runs the plan under the elastic controller, one epoch per
  /// deadline / 6, instead of the static executor.
  bool dynamic = false;
};

struct CorpusSummary {
  std::string name;  // the size distribution's
  std::size_t files = 0;
  Bytes volume{0};
  Bytes mean_file{0};
};

/// The elastic controller's tallies, for a dynamic run.
struct CampaignSummary {
  std::size_t epochs = 0;
  std::size_t hedges = 0;
  std::size_t hedge_wins = 0;
};

/// What each stage produced.  The corpus and its merged blocks are
/// summarised, not kept.
struct Report {
  CorpusSummary corpus;
  std::size_t blocks = 0;
  Bytes unit{0};
  double fill = 0.0;  // MergedCorpus::fill_factor
  int screen_attempts = 0;
  model::Predictor predictor;
  provision::ExecutionPlan plan;
  provision::ExecutionReport execution;
  std::optional<CampaignSummary> campaign;  // set when Config::dynamic
};

/// Runs every stage.  Throws reshape::Error when the config asks for an
/// infeasible plan (a deadline below the model's intercept) or when a
/// stage breaks a whole-pipeline invariant: the blocks hold the corpus
/// volume, the plan covers it exactly, and the run reports one outcome
/// per planned instance.
[[nodiscard]] Report run(const Config& config);

}  // namespace reshape::pipeline
