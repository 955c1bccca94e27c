#include "cloud/provider.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::cloud {

CloudProvider::CloudProvider(sim::Simulation& sim, Rng root,
                             ProviderConfig config)
    : sim_(sim), root_(root), lifecycle_noise_(root.split("lifecycle")),
      bench_noise_(root.split("disk-bench")), config_(config),
      quality_(root.split("quality"), config.mixture),
      injector_(root.split("faults"), config.faults) {}

Seconds CloudProvider::draw_boot_delay() {
  const double drawn = lifecycle_noise_.normal(config_.boot_mean.value(),
                                               config_.boot_stddev.value());
  return Seconds(std::max(config_.boot_min.value(), drawn));
}

Seconds CloudProvider::draw_attach_latency() {
  const double drawn = lifecycle_noise_.normal(config_.attach_mean.value(),
                                               config_.attach_stddev.value());
  return Seconds(std::max(1.0, drawn));
}

std::vector<obs::profile::InstanceCostRecord> CloudProvider::cost_records(
    Seconds now) const {
  std::vector<obs::profile::InstanceCostRecord> records;
  records.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    obs::profile::InstanceCostRecord record;
    record.instance = inst.id().value;
    record.dollars = billing_.cost(inst.id(), now).amount();
    record.running_s = billing_.running_time(inst.id(), now).value();
    record.failed = inst.has_failed();
    records.push_back(record);
  }
  return records;
}

InstanceId CloudProvider::launch(InstanceType type, AvailabilityZone az,
                                 std::function<void(Instance&)> on_running) {
  const AzOutageEpisode* outage = arm_zone_outage(az);
  const InstanceId id{next_instance_++};
  instances_.emplace_back(id, type, az, quality_.draw(id.value), sim_.now());
  armed_faults_.emplace_back();
  if (obs::enabled()) obs::metrics().counter("instance.launches").add(1);

  const Seconds boot = draw_boot_delay();
  if (injector_.draw_boot_failure(id.value) ||
      (outage && outage->covers(sim_.now() + boot))) {
    // The launch dies during boot: pending -> failed at what would have
    // been the boot instant; it never runs, so it is never billed.  A boot
    // landing inside the zone's outage episode dies the same way.
    sim_.schedule_in(boot, [this, id](sim::Simulation&) {
      // A terminate() issued while still pending wins: skip the failure.
      // So does the zone-outage onset having already struck this instance.
      if (instance(id).state() != InstanceState::kPending) return;
      fail(id, FailureKind::kBootFailure);
    });
    return id;
  }
  sim_.schedule_in(boot, [this, id, type,
                          cb = std::move(on_running)](sim::Simulation& s) {
    Instance& inst_ref = instance(id);
    // A terminate() issued while still pending wins: skip the boot.
    if (inst_ref.state() != InstanceState::kPending) return;
    inst_ref.mark_running(s.now());
    billing_.on_running(id, type, s.now());
    arm_runtime_fault(id);
    if (cb) cb(inst_ref);
  });
  return id;
}

void CloudProvider::arm_runtime_fault(InstanceId id) {
  const auto fault = injector_.draw_runtime_fault(id.value);
  if (!fault) return;
  armed_faults_[static_cast<std::size_t>(id.value - 1)] = sim_.schedule_in(
      fault->after, [this, id, kind = fault->kind](sim::Simulation&) {
        if (!instance(id).is_running()) return;
        fail(id, kind);
      });
}

void CloudProvider::disarm_runtime_fault(InstanceId id) {
  sim::EventHandle& armed = armed_faults_[static_cast<std::size_t>(id.value - 1)];
  if (!armed.valid()) return;
  sim_.cancel(armed);
  armed = sim::EventHandle{};
}

void CloudProvider::fail(InstanceId id, FailureKind kind) {
  Instance& inst = instance(id);
  RESHAPE_REQUIRE(inst.state() == InstanceState::kRunning ||
                      inst.state() == InstanceState::kPending,
                  "only a pending or running instance can fail");
  const bool was_running = inst.is_running();
  // Volumes persist beyond the instance (§1.1); force-detach them.
  while (!inst.attached_volumes().empty()) {
    detach(inst.attached_volumes().back());
  }
  // The partial hour up to the crash stays billed (flat-rate model).
  if (was_running) billing_.on_stopped(id, sim_.now());
  inst.mark_failed(sim_.now(), kind);
  disarm_runtime_fault(id);
  ++failures_;
  if (obs::enabled()) {
    switch (kind) {
      case FailureKind::kBootFailure:
        obs::metrics().counter("instance.boot_failures").add(1);
        break;
      case FailureKind::kCrash:
        obs::metrics().counter("instance.crashes").add(1);
        break;
      case FailureKind::kSpotInterruption:
        obs::metrics().counter("instance.spot_interruptions").add(1);
        break;
      case FailureKind::kAzOutage:
        obs::metrics().counter("instance.az_outage_failures").add(1);
        break;
    }
  }
  for (const FailureHook& hook : failure_hooks_) {
    if (hook) hook(inst);
  }
}

const AzOutageEpisode* CloudProvider::arm_zone_outage(
    const AvailabilityZone& az) {
  if (config_.faults.p_az_outage <= 0.0) return nullptr;
  for (const ArmedZone& armed : zone_outages_) {
    if (armed.az == az) {
      return armed.episode ? &*armed.episode : nullptr;
    }
  }
  ArmedZone& armed = zone_outages_.emplace_back(
      ArmedZone{az, injector_.draw_az_outage(az)});
  if (armed.episode && sim_.now() < armed.episode->start) {
    sim_.schedule_at(armed.episode->start,
                     [this, az](sim::Simulation&) { strike_zone(az); });
    if (obs::enabled()) {
      obs::trace().complete(obs::kPidCloud, 0, "az", "outage",
                            armed.episode->start.value(),
                            armed.episode->duration.value(),
                            {obs::arg("zone", az.name())});
    }
  }
  return armed.episode ? &*armed.episode : nullptr;
}

void CloudProvider::strike_zone(const AvailabilityZone& az) {
  // Collect first: failure hooks run re-entrantly and may launch
  // replacements (growing instances_) while we iterate.
  std::vector<InstanceId> victims;
  for (const Instance& inst : instances_) {
    if (inst.zone() == az && (inst.state() == InstanceState::kPending ||
                              inst.state() == InstanceState::kRunning)) {
      victims.push_back(inst.id());
    }
  }
  if (obs::enabled()) obs::metrics().counter("fault.az_outages").add(1);
  for (const InstanceId id : victims) {
    const InstanceState state = instance(id).state();
    // A hook reacting to an earlier victim may have terminated this one.
    if (state != InstanceState::kPending && state != InstanceState::kRunning) {
      continue;
    }
    fail(id, FailureKind::kAzOutage);
  }
}

std::optional<AzOutageEpisode> CloudProvider::az_outage_episode(
    AvailabilityZone az) {
  const AzOutageEpisode* episode = arm_zone_outage(az);
  return episode ? std::optional<AzOutageEpisode>(*episode) : std::nullopt;
}

std::size_t CloudProvider::add_failure_hook(FailureHook hook) {
  failure_hooks_.push_back(std::move(hook));
  return failure_hooks_.size() - 1;
}

void CloudProvider::remove_failure_hook(std::size_t token) {
  RESHAPE_REQUIRE(token < failure_hooks_.size(), "unknown failure hook");
  failure_hooks_[token] = nullptr;
}

void CloudProvider::terminate(InstanceId id) {
  Instance& inst = instance(id);
  RESHAPE_REQUIRE(inst.state() == InstanceState::kRunning ||
                      inst.state() == InstanceState::kPending,
                  "terminate requires a pending or running instance");
  const bool was_running = inst.is_running();
  // Volumes persist beyond the instance (§1.1); force-detach them.
  while (!inst.attached_volumes().empty()) {
    detach(inst.attached_volumes().back());
  }
  inst.begin_shutdown(sim_.now());
  if (was_running) billing_.on_stopped(id, sim_.now());
  disarm_runtime_fault(id);
  if (obs::enabled()) obs::metrics().counter("instance.terminations").add(1);
  sim_.schedule_in(config_.shutdown_delay, [this, id](sim::Simulation& s) {
    instance(id).mark_terminated(s.now());
  });
}

Instance& CloudProvider::instance(InstanceId id) {
  RESHAPE_REQUIRE(id.valid() && id.value <= instances_.size(),
                  "unknown instance id");
  return instances_[static_cast<std::size_t>(id.value - 1)];
}

const Instance& CloudProvider::instance(InstanceId id) const {
  RESHAPE_REQUIRE(id.valid() && id.value <= instances_.size(),
                  "unknown instance id");
  return instances_[static_cast<std::size_t>(id.value - 1)];
}

bool CloudProvider::exists(InstanceId id) const {
  return id.valid() && id.value <= instances_.size();
}

VolumeId CloudProvider::create_volume(Bytes capacity, AvailabilityZone az) {
  const VolumeId id{next_volume_++};
  EbsVolume& vol = volumes_.emplace_back(id, capacity, az, config_.ebs,
                                         root_.split("ebs-placement"));
  if (obs::enabled()) obs::metrics().counter("ebs.volumes").add(1);
  if (const auto episode = injector_.draw_ebs_episode(id.value)) {
    const Seconds start = sim_.now() + episode->start_after;
    vol.add_degradation(start, start + episode->duration, episode->factor);
    if (obs::enabled()) {
      obs::metrics().counter("ebs.degradation_episodes").add(1);
      obs::trace().complete(obs::kPidCloud, 0, "ebs", "degradation",
                            start.value(), episode->duration.value(),
                            {obs::arg("volume", id.value),
                             obs::arg("factor", episode->factor)});
    }
  }
  return id;
}

EbsVolume& CloudProvider::volume(VolumeId id) {
  RESHAPE_REQUIRE(id.valid() && id.value <= volumes_.size(),
                  "unknown volume id");
  return volumes_[static_cast<std::size_t>(id.value - 1)];
}

const EbsVolume& CloudProvider::volume(VolumeId id) const {
  RESHAPE_REQUIRE(id.valid() && id.value <= volumes_.size(),
                  "unknown volume id");
  return volumes_[static_cast<std::size_t>(id.value - 1)];
}

void CloudProvider::attach(VolumeId volume_id, InstanceId instance_id) {
  EbsVolume& vol = volume(volume_id);
  Instance& inst = instance(instance_id);
  RESHAPE_REQUIRE(inst.state() == InstanceState::kRunning ||
                      inst.state() == InstanceState::kPending,
                  "cannot attach to a terminated instance");
  RESHAPE_REQUIRE(vol.zone() == inst.zone(),
                  "EBS volumes attach only within their availability zone");
  vol.attach(instance_id);
  inst.note_attached(volume_id);
}

void CloudProvider::detach(VolumeId volume_id) {
  EbsVolume& vol = volume(volume_id);
  RESHAPE_REQUIRE(vol.attached(), "volume is not attached");
  Instance& inst = instance(vol.attached_to());
  vol.detach();
  inst.note_detached(volume_id);
}

DiskBenchResult CloudProvider::disk_bench(InstanceId id) {
  Instance& inst = instance(id);
  RESHAPE_REQUIRE(inst.is_running(), "disk bench needs a running instance");
  return run_disk_bench(inst, bench_noise_);
}

CloudProvider::ScreenedAcquisition CloudProvider::acquire_screened(
    InstanceType type, AvailabilityZone az, Rate threshold, int max_attempts) {
  const Seconds screen_begun = sim_.now();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    const InstanceId id = launch(type, az);
    // Run the simulation forward until this instance has booted (or died
    // during boot — an injected boot failure burns the attempt).
    while (instance(id).state() == InstanceState::kPending) {
      RESHAPE_REQUIRE(sim_.step(), "boot event missing from the simulation");
    }
    if (!instance(id).is_running()) continue;
    const DiskBenchResult first = disk_bench(id);
    const DiskBenchResult second = disk_bench(id);
    sim_.run_until(sim_.now() + first.elapsed + second.elapsed);
    // A crash during the benchmark window also burns the attempt.
    if (!instance(id).is_running()) continue;
    if (first.passes(threshold) && second.passes(threshold) &&
        stable_pair(first, second)) {
      if (obs::enabled()) {
        obs::metrics().counter("screen.acquisitions").add(1);
        obs::metrics().counter("screen.attempts").add(
            static_cast<std::uint64_t>(attempt));
        obs::trace().complete(
            obs::kPidCloud, static_cast<std::uint32_t>(id.value), "screen",
            "acquire_screened", screen_begun.value(),
            (sim_.now() - screen_begun).value(),
            {obs::arg("attempts", attempt),
             obs::arg("instance", id.value)});
      }
      return ScreenedAcquisition{id, attempt};
    }
    terminate(id);
  }
  throw Error("could not acquire a stable fast instance within the attempt "
              "budget");
}

}  // namespace reshape::cloud
