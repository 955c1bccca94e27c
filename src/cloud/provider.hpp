// CloudProvider: the EC2 control-plane facade.
//
// Owns the fleet, the EBS volumes and the billing meter, and drives
// lifecycle transitions on the shared discrete-event simulation.
// Every stochastic element (boot delays, instance qualities, benchmark
// noise) flows from named child streams of one root Rng, so a provider
// constructed with the same seed replays identically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/disk_bench.hpp"
#include "cloud/ebs.hpp"
#include "cloud/faults.hpp"
#include "cloud/instance.hpp"
#include "cloud/quality.hpp"
#include "cloud/s3.hpp"
#include "cloud/types.hpp"
#include "common/rng.hpp"
#include "obs/profile/cost.hpp"
#include "sim/simulation.hpp"

namespace reshape::cloud {

struct ProviderConfig {
  QualityMixture mixture{};
  EbsPlacementModel ebs{};
  S3Model s3{};
  /// Boot (pending) time: truncated normal.
  Seconds boot_mean{75.0};
  Seconds boot_stddev{25.0};
  Seconds boot_min{20.0};
  /// EBS attach latency.
  Seconds attach_mean{12.0};
  Seconds attach_stddev{4.0};
  /// Shutdown (shutting-down state) duration.
  Seconds shutdown_delay{15.0};
  /// Fault injection; the default zero model keeps the cloud failure-free
  /// and the provider's behaviour bit-identical to a fault-free build.
  FaultModel faults{};
};

class CloudProvider {
 public:
  CloudProvider(sim::Simulation& sim, Rng root, ProviderConfig config = {});

  CloudProvider(const CloudProvider&) = delete;
  CloudProvider& operator=(const CloudProvider&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] BillingMeter& billing() { return billing_; }
  [[nodiscard]] const BillingMeter& billing() const { return billing_; }

  /// Every instance's bill (charged up to `now`) as plain data for the
  /// obs cost attributor, in ascending instance-id order.
  [[nodiscard]] std::vector<obs::profile::InstanceCostRecord> cost_records(
      Seconds now) const;
  [[nodiscard]] const ProviderConfig& config() const { return config_; }

  /// Requests an instance: it enters `pending` now and `running` after the
  /// boot delay (an event on the simulation).  `on_running` (optional)
  /// fires when it transitions.
  InstanceId launch(InstanceType type, AvailabilityZone az,
                    std::function<void(Instance&)> on_running = nullptr);

  /// Begins termination; billing stops immediately (the running interval
  /// closes) and the instance reaches `terminated` after the shutdown
  /// delay.  Attached volumes are detached (they persist).
  void terminate(InstanceId id);

  /// Fails an instance right now (the injector's entry point, also usable
  /// by chaos tests): the billing interval closes at the crash instant
  /// (the partial hour stays billed), attached volumes are force-detached
  /// (they persist), the state becomes `failed`, and every registered
  /// failure hook fires.
  void fail(InstanceId id, FailureKind kind);

  /// Registers an observer called whenever an instance fails.  Returns a
  /// token for remove_failure_hook.
  using FailureHook = std::function<void(Instance&)>;
  std::size_t add_failure_hook(FailureHook hook);
  void remove_failure_hook(std::size_t token);

  /// Total instance failures injected or forced so far.
  [[nodiscard]] std::size_t failure_count() const { return failures_; }

  [[nodiscard]] const FaultInjector& fault_injector() const {
    return injector_;
  }

  /// The outage episode (if any) the fault model holds for a zone.  Arms
  /// the zone on first query, exactly as a launch into it would, so the
  /// answer is the same episode the fleet will experience.
  [[nodiscard]] std::optional<AzOutageEpisode> az_outage_episode(
      AvailabilityZone az);

  [[nodiscard]] Instance& instance(InstanceId id);
  [[nodiscard]] const Instance& instance(InstanceId id) const;
  [[nodiscard]] bool exists(InstanceId id) const;
  [[nodiscard]] std::size_t fleet_size() const { return instances_.size(); }
  [[nodiscard]] std::uint64_t launches() const { return next_instance_ - 1; }

  /// Creates a persistent EBS volume in a zone.
  VolumeId create_volume(Bytes capacity, AvailabilityZone az);
  [[nodiscard]] EbsVolume& volume(VolumeId id);
  [[nodiscard]] const EbsVolume& volume(VolumeId id) const;
  [[nodiscard]] std::size_t volume_count() const { return volumes_.size(); }

  /// Attaches a volume to a running (or pending) instance in the same zone.
  /// The attachment itself costs `attach_mean`-ish simulated time, which
  /// the caller accounts for (the provider does not block).
  void attach(VolumeId volume_id, InstanceId instance_id);
  void detach(VolumeId volume_id);

  /// A draw of the attach latency, for callers modelling staging time.
  [[nodiscard]] Seconds draw_attach_latency();

  /// One bonnie++-style pass on an instance's storage.
  [[nodiscard]] DiskBenchResult disk_bench(InstanceId id);

  /// §4 acquisition procedure: launch, run the simulation until the
  /// instance boots, benchmark twice, keep it only if both passes clear
  /// `threshold` and agree (stability); otherwise terminate and retry.
  /// Returns the kept instance and the number of instances tried.
  struct ScreenedAcquisition {
    InstanceId id{};
    int attempts = 0;
  };
  ScreenedAcquisition acquire_screened(
      InstanceType type, AvailabilityZone az,
      Rate threshold = Rate::megabytes_per_second(60.0), int max_attempts = 10);

 private:
  [[nodiscard]] Seconds draw_boot_delay();
  /// Arms the instance's scheduled runtime fault (if the model draws one).
  void arm_runtime_fault(InstanceId id);
  /// Cancels an armed-but-unfired fault event for the instance.
  void disarm_runtime_fault(InstanceId id);

  /// Draws (once) and schedules a zone's outage episode; returns it, or
  /// nullptr when the zone stays healthy.  No draws under the zero model.
  const AzOutageEpisode* arm_zone_outage(const AvailabilityZone& az);
  /// Episode onset: every pending or running instance in the zone fails.
  void strike_zone(const AvailabilityZone& az);

  sim::Simulation& sim_;
  Rng root_;
  Rng lifecycle_noise_;
  Rng bench_noise_;
  ProviderConfig config_;
  QualityModel quality_;
  FaultInjector injector_;
  BillingMeter billing_;
  // Per-instance state lives in dense pools indexed by id (ids are
  // sequential from 1): the fleet is a deque slab (stable references, no
  // per-instance heap node, no hashing on the lifecycle hot path) and the
  // armed-fault handles sit in a parallel array — fault-heavy campaigns
  // walk arrays instead of chasing pointers.
  /// Zones whose outage draw has been made (armed lazily at first touch).
  struct ArmedZone {
    AvailabilityZone az{};
    std::optional<AzOutageEpisode> episode;
  };
  std::vector<ArmedZone> zone_outages_;
  std::deque<Instance> instances_;
  std::deque<EbsVolume> volumes_;
  std::vector<sim::EventHandle> armed_faults_;  // parallel to instances_
  std::vector<FailureHook> failure_hooks_;
  std::size_t failures_ = 0;
  std::uint64_t next_instance_ = 1;
  std::uint64_t next_volume_ = 1;
};

}  // namespace reshape::cloud
