#include "provision/work_unit.hpp"

#include <algorithm>

namespace reshape::provision {

WorkUnit::WorkUnit(const ExecutionPlan& plan, std::size_t i,
                   const cloud::AppCostProfile& profile, const Rng& noise)
    : index(i), assignment(plan.assignments[i]), app(profile),
      run_noise(noise.split(i)), remaining(assignment.volume) {
  app.cpu_seconds_per_byte *= assignment.mean_complexity;
}

void WorkUnit::ran_on(const cloud::Instance& instance) {
  last_instance = instance.id();
  quality = instance.quality().cls;
}

void WorkUnit::note_layout(const cloud::DataLayout& layout) {
  if (file_count_set) return;
  file_count = layout.file_count;
  file_count_set = true;
}

Seconds WorkUnit::credit_recovery(Seconds now) {
  const Seconds waited = now - failed_at;
  recovery_total += waited;
  return waited;
}

void WorkUnit::charge_crash(const Attempt& attempt, Seconds elapsed) {
  ++failures;
  work_total += elapsed;
  staging_total += std::min(elapsed, attempt.staging);
  exec_total += std::min(std::max(Seconds(0.0), elapsed - attempt.staging),
                         attempt.exec);
}

double WorkUnit::bank_progress(const Attempt& attempt, Seconds elapsed) {
  double progress = 1.0;
  if (attempt.exec.value() > 0.0) {
    progress = std::clamp(
        (elapsed - attempt.staging).value() / attempt.exec.value(), 0.0, 1.0);
  }
  Bytes processed(
      static_cast<std::uint64_t>(progress * attempt.bytes.as_double()));
  processed = std::min(processed, remaining);
  remaining -= processed;
  data_offset += processed;
  return progress;
}

InstanceOutcome WorkUnit::outcome(std::string_view unfinished) const {
  InstanceOutcome o;
  o.index = index;
  o.id = last_instance;
  o.volume = assignment.volume;
  o.volume_id = volume;
  o.file_count = file_count;
  o.staging = staging_total;
  o.exec_time = exec_total;
  o.work_time = work_total + recovery_total;
  o.quality = quality;
  o.completed = done;
  o.error = !done && error.empty() ? std::string(unfinished) : error;
  o.failures = failures;
  o.relaunches = relaunches;
  o.recovery_time = recovery_total;
  return o;
}

StagedVolume stage_volume(cloud::CloudProvider& provider,
                          const Assignment& assignment, Bytes bytes,
                          cloud::AvailabilityZone zone) {
  const cloud::VolumeId id = provider.create_volume(
      std::max(assignment.volume * 2, Bytes(1'000'000)), zone);
  return {id, provider.volume(id).stage(bytes)};
}

AttachedVolume attach_volume(cloud::CloudProvider& provider,
                             cloud::VolumeId volume,
                             cloud::InstanceId instance, Bytes offset) {
  cloud::EbsVolume& vol = provider.volume(volume);
  provider.attach(volume, instance);
  const Seconds latency = provider.draw_attach_latency();
  return {latency,
          cloud::EbsStorage{&vol, offset,
                            vol.degradation_factor(provider.sim().now())}};
}

}  // namespace reshape::provision
