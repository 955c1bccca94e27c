// The elastic campaign controller: epoch re-planning, straggler defense,
// and deadline-aware graceful degradation under fault storms.
//
// The static executor commits a fleet once and rides it to the end:
// nothing re-plans when the world drifts away from the model.  This
// controller is the paper's §3.1/§7 "monitor the fleet and replace
// lagging instances" loop, and the only driver that runs it; the §3.1
// checkpoint rescheduler is this controller with the epoch set to the
// checkpoint interval (`reshape_cli --dynamic`, tab_dynamic_rescheduling).
// A campaign runs as a sequence of *epochs* on the shared event engine; at
// every epoch boundary the controller
//
//   (a) ingests one progress report per fleet slot and flags stragglers
//       with the robust median/MAD estimator (provision/straggler),
//       hedging each flagged slot with a speculative relaunch whose loser
//       is cancelled the moment the winner finishes;
//   (b) banks every completed attempt's observed throughput into a
//       model::ThroughputBank, refits the predictor, and re-runs the
//       capacity calculation against the remaining work — acquiring and
//       releasing instances under an explicit acquisition budget with
//       capped-exponential backoff on failed boots, and routing new
//       capacity to a fallback availability zone when a zone turns
//       suspect (an AZ-outage episode or a failure cluster);
//   (c) when the deadline has become infeasible even at full budget,
//       degrades gracefully: sheds the lowest-value pending units until
//       the rest fit, and reports exactly what was shed.
//
// ElasticOptions holds only the epoch period and the acquisition budget;
// every threshold is a named constant in controller.cpp or straggler.cpp.
//
// Determinism contract: the controller makes no draws of its own beyond
// named child streams of the caller's noise Rng and the provider's
// seeded streams, so a campaign with a given (seed, options) replays
// bit-identically — the property the chaos differential suite leans on.
//
// Invariants (enforced, and re-checked by the chaos suite):
//   * every unit is completed exactly once or shed exactly once — never
//     both, never twice;
//   * a unit's admission digest matches at completion (no bookkeeping
//     corruption across relaunches, hedges and cross-AZ moves);
//   * billing stays consistent: every launched instance is terminated or
//     failed by campaign end.
#pragma once

#include <cstdint>
#include <vector>

#include "provision/executor.hpp"

namespace reshape::provision {

struct ElasticOptions {
  /// Epoch period.  Reports, flags, refits, re-plans and shedding all
  /// happen on these boundaries.
  Seconds epoch{300.0};
  /// Launches allowed beyond the initial fleet (replacements, hedges and
  /// growth all draw from this one budget).
  int acquisition_budget = 16;
};

/// One epoch boundary's decisions, in order.
struct EpochDecision {
  std::uint64_t seq = 0;
  Seconds at{0.0};
  std::size_t live_members = 0;
  std::size_t units_pending = 0;
  Bytes bytes_remaining{0};
  std::vector<std::uint64_t> flagged;  // straggler slots, ascending
  std::size_t hedges_launched = 0;
  std::size_t acquired = 0;
  bool degraded = false;  // units were shed this epoch
  std::vector<std::size_t> shed_units;  // unit indexes shed this epoch
};

struct CampaignReport {
  /// Per-unit outcomes in the executor's report shape (one outcome per
  /// work unit; met_deadline is campaign-clock: finished by `deadline`).
  /// A unit won by a hedge reports work_time as its wall time from its
  /// first attempt to the win.
  ExecutionReport execution;
  std::vector<EpochDecision> epochs;

  std::size_t replans = 0;  // one capacity calculation per epoch
  std::size_t stragglers_flagged = 0;
  std::size_t hedges_launched = 0;
  std::size_t speculative_wins = 0;    // races won by the hedge
  std::size_t speculative_losses = 0;  // races won by the original
  std::size_t units_shed = 0;
  Bytes bytes_shed{0};
  std::vector<std::size_t> shed_units;  // all shed unit indexes, ascending
  std::size_t cross_az_moves = 0;  // re-stages into a different zone
  std::size_t acquisitions = 0;    // launches beyond the initial fleet
  std::size_t releases = 0;        // voluntary terminations of idle members
  std::size_t boot_failures = 0;
  bool degraded = false;

  /// Fraction of units that completed within the campaign deadline (shed
  /// units count as misses).
  [[nodiscard]] double deadline_hit_rate() const;
};

/// Runs one campaign under elastic control.  `base` carries the
/// per-attempt execution knobs (staging mode, reshaped unit); `noise`
/// seeds the per-unit run-time jitter streams exactly as execute_plan
/// does.  The provider's simulation is run to completion.
[[nodiscard]] CampaignReport run_campaign(cloud::CloudProvider& provider,
                                          const ExecutionPlan& plan,
                                          const cloud::AppCostProfile& app,
                                          const ExecutionOptions& base,
                                          const ElasticOptions& options,
                                          Rng& noise);

}  // namespace reshape::provision
