// One plan assignment as a campaign driver works it.
//
// The static executor (executor.cpp) and the elastic controller
// (controller.cpp) schedule work differently, but they keep the same
// per-unit state and decide these things the same way, here:
//   * set-up from the plan: the complexity-scaled profile, the unit's own
//     jitter stream and its remaining bytes;
//   * the pre-staged EBS volume and its attach;
//   * what a crash charges to the unit and which prefix survives it;
//   * the outcome fields both drivers report alike.
// Each driver keeps its own scheduling, RNG draw order, deadline clock
// and trace/metric names.
#pragma once

#include <string>
#include <string_view>

#include "cloud/provider.hpp"
#include "cloud/workload.hpp"
#include "provision/executor.hpp"

namespace reshape::provision {

/// One attempt in flight on an instance.
struct Attempt {
  Seconds begun{0.0};
  Seconds staging{0.0};
  Seconds exec{0.0};
  Bytes bytes{0};  // the unit's remaining bytes when the attempt began
  sim::EventHandle completion{};
};

struct WorkUnit {
  /// Assignment `index` of `plan`: CPU demand scaled by the assignment's
  /// text complexity (§5.2), jitter stream `noise.split(index)`, and every
  /// byte still to process.
  WorkUnit(const ExecutionPlan& plan, std::size_t index,
           const cloud::AppCostProfile& app, const Rng& noise);

  std::size_t index;
  Assignment assignment;
  cloud::AppCostProfile app;
  Rng run_noise;

  /// Persistent EBS home (EBS mode); `data_offset` is where the
  /// unprocessed extent starts on it.
  cloud::VolumeId volume{};
  Bytes data_offset{0};
  Bytes remaining{0};

  // Accumulated outcome.
  cloud::InstanceId last_instance{};
  cloud::QualityClass quality = cloud::QualityClass::kFast;
  std::uint64_t file_count = 0;
  bool file_count_set = false;
  Seconds staging_total{0.0};
  Seconds exec_total{0.0};
  Seconds work_total{0.0};
  Seconds recovery_total{0.0};
  Seconds failed_at{0.0};
  std::size_t failures = 0;
  std::size_t relaunches = 0;
  bool done = false;
  std::string error;

  /// The unit's trace track.
  [[nodiscard]] std::uint32_t tid() const {
    return static_cast<std::uint32_t>(index);
  }
  /// Notes the instance an attempt runs (or finished) on.
  void ran_on(const cloud::Instance& instance);
  /// Reports the first attempt's file count.
  void note_layout(const cloud::DataLayout& layout);
  /// Books the wait since `failed_at` as recovery time and returns it.
  Seconds credit_recovery(Seconds now);
  /// Counts a crash `elapsed` into `attempt` and charges that time to the
  /// work total, split into staging and exec; time past the exec window
  /// is charged to neither.
  void charge_crash(const Attempt& attempt, Seconds elapsed);
  /// Linear-progress banking: the share of the attempt's exec window that
  /// elapsed is processed, and that prefix survives the crash (on the
  /// persistent volume, or simply never re-read).  Returns the share.
  double bank_progress(const Attempt& attempt, Seconds elapsed);
  /// The outcome fields both drivers fill alike; `work_time` is the work
  /// plus recovery total.  `unfinished` is the error of a unit that never
  /// completed and recorded none.  The caller sets `met_deadline`.
  [[nodiscard]] InstanceOutcome outcome(std::string_view unfinished) const;
};

/// A fresh volume in `zone` sized for the assignment (twice its volume,
/// at least 1 MB) with `bytes` staged on it from `offset`.
struct StagedVolume {
  cloud::VolumeId id;
  Bytes offset;
};
[[nodiscard]] StagedVolume stage_volume(cloud::CloudProvider& provider,
                                        const Assignment& assignment,
                                        Bytes bytes,
                                        cloud::AvailabilityZone zone);

/// Attaches `volume` to `instance`: the drawn attach latency, and the
/// binding an attempt reads the extent at `offset` through (with any EBS
/// degradation episode active now).
struct AttachedVolume {
  Seconds latency;
  cloud::StorageBinding storage;
};
[[nodiscard]] AttachedVolume attach_volume(cloud::CloudProvider& provider,
                                           cloud::VolumeId volume,
                                           cloud::InstanceId instance,
                                           Bytes offset);

}  // namespace reshape::provision
