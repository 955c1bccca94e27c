// Deterministic fault injection for the cloud substrate.
//
// The paper's §4 screening loop ("terminate and retry") and its reliance on
// EBS volumes that persist across instance loss both presuppose a cloud
// where things fail.  This module supplies that failure behaviour as a
// seeded, replayable model: every draw is a pure function of (injector
// seed, entity index), the same determinism contract as CloudProvider's
// quality and placement streams, so a run with a given seed and FaultModel
// replays bit-identically no matter how events interleave.
//
// Control-plane fault classes:
//   * boot failures    — pending -> failed without ever reaching running;
//   * mid-run crashes  — exponential inter-failure time per instance-hour;
//   * spot-style interruptions — same shape, separate rate and stream, so
//     spot and on-demand fleets can be mixed in one experiment;
//   * transient EBS degradation — a throughput-divisor episode on a volume
//     (contention on the shared network path, distinct from the repeatable
//     placement penalty of Fig. 5).
//
// Data-plane fault classes (per transfer attempt, drawn as a pure function
// of (seed, key, attempt) so a retried scenario replays bit-identically):
//   * transient request errors — the request fails fast (throttle, reset);
//   * stalls — the read crawls at a fraction of the modelled rate, the
//     trigger for per-attempt timeouts;
//   * silent payload corruption — the bytes arrive wrong; the retry
//     engine's block-digest check (transfer_with_retries) rejects the
//     payload and retries.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "cloud/types.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace reshape::cloud {

/// Fault-rate parameters.  The default model is the zero model: nothing
/// ever fails and every draw short-circuits, so a provider configured with
/// it behaves bit-identically to one with no injector at all.
struct FaultModel {
  /// Probability that a launch dies during boot (pending -> failed).
  double p_boot_failure = 0.0;
  /// Crash rate while running, in failures per instance-hour (exponential
  /// inter-failure time).
  double crash_rate_per_hour = 0.0;
  /// Spot-style interruption rate per instance-hour (separate stream).
  double spot_interruption_rate_per_hour = 0.0;
  /// Probability that a volume suffers one transient degradation episode.
  double p_ebs_degradation = 0.0;
  /// Throughput divisor during a degradation episode, drawn uniformly.
  double ebs_degradation_lo = 1.5;
  double ebs_degradation_hi = 3.0;
  /// Episode length is exponential with this mean.
  Seconds ebs_degradation_mean{900.0};
  /// Episode onset is uniform in [0, spread) after volume creation.
  Seconds ebs_degradation_spread{1800.0};

  /// Probability that an availability zone suffers one outage episode
  /// during the run (drawn once per zone, keyed by the zone itself).  At
  /// onset every pending or running instance in the zone fails together
  /// (kAzOutage); launches whose boot would complete inside the episode
  /// die as boot failures.  Other zones are untouched — the escape hatch
  /// the elastic controller's cross-AZ replacement exists for.
  double p_az_outage = 0.0;
  /// Episode onset is uniform in [0, spread) of absolute simulated time.
  Seconds az_outage_spread{7200.0};
  /// Episode length is exponential with this mean.
  Seconds az_outage_mean{1800.0};

  /// Data plane: probability that one transfer attempt fails with a
  /// transient request error (the request dies fast, before any payload).
  double p_transfer_error = 0.0;
  /// Probability that one transfer attempt stalls: it still completes,
  /// but `stall_factor`-times slower — the trigger for attempt timeouts.
  double p_transfer_stall = 0.0;
  /// Stall slow-down divisor, drawn uniformly per stalled attempt.
  double transfer_stall_lo = 4.0;
  double transfer_stall_hi = 10.0;
  /// Probability that one transfer attempt silently corrupts the payload.
  double p_transfer_corruption = 0.0;

  /// True when any fault class is enabled.
  [[nodiscard]] bool any() const;
  /// True when any per-transfer (data-plane) fault class is enabled.
  [[nodiscard]] bool transfer_any() const;
};

/// A fault scheduled to strike a running instance.
struct RuntimeFault {
  Seconds after{0.0};  // delay from the moment the instance starts running
  FailureKind kind = FailureKind::kCrash;
};

/// One transient EBS throughput-degradation episode.
struct EbsDegradationEpisode {
  Seconds start_after{0.0};  // delay from volume creation
  Seconds duration{0.0};
  double factor = 1.0;  // throughput divisor while active (>= 1.0)
};

/// One availability-zone outage episode, in absolute simulated time.
struct AzOutageEpisode {
  Seconds start{0.0};
  Seconds duration{0.0};

  [[nodiscard]] Seconds end() const { return start + duration; }
  [[nodiscard]] bool covers(Seconds when) const {
    return when.value() >= start.value() && when.value() < end().value();
  }
};

/// What strikes one transfer attempt.
enum class TransferFaultKind {
  kNone,
  kTransientError,  // the request fails fast
  kStall,           // the read completes `stall_factor` times slower
  kCorruption,      // the payload arrives silently wrong
};

struct TransferFault {
  TransferFaultKind kind = TransferFaultKind::kNone;
  double stall_factor = 1.0;  // > 1 only for kStall
};

/// Draws faults deterministically from named child streams of one root.
/// Every draw is keyed by the entity's index, so the outcome for instance
/// or volume N does not depend on how many other draws happened first.
class FaultInjector {
 public:
  FaultInjector(Rng root, FaultModel model);

  [[nodiscard]] const FaultModel& model() const { return model_; }

  /// True when the `index`-th launch dies during boot.
  [[nodiscard]] bool draw_boot_failure(std::uint64_t index) const;

  /// The fault (if any) that strikes the `index`-th instance after it
  /// starts running: the earlier of its crash and interruption draws.
  [[nodiscard]] std::optional<RuntimeFault> draw_runtime_fault(
      std::uint64_t index) const;

  /// The degradation episode (if any) for the `index`-th volume.
  [[nodiscard]] std::optional<EbsDegradationEpisode> draw_ebs_episode(
      std::uint64_t index) const;

  /// The outage episode (if any) striking an availability zone.  Keyed by
  /// the zone itself (region, index), so the draw is independent of how
  /// many zones a campaign touches or in what order.
  [[nodiscard]] std::optional<AzOutageEpisode> draw_az_outage(
      const AvailabilityZone& az) const;

  /// The fault (if any) striking attempt `attempt` of the transfer named
  /// `key`.  A pure function of (injector seed, key, attempt): the same
  /// scenario replays bit-identically, and the zero model short-circuits
  /// without touching any stream.
  [[nodiscard]] TransferFault draw_transfer_fault(std::string_view key,
                                                  std::uint64_t attempt) const;

 private:
  FaultModel model_;
  Rng boot_;
  Rng crash_;
  Rng spot_;
  Rng ebs_;
  Rng az_;
  Rng transfer_;
};

}  // namespace reshape::cloud
