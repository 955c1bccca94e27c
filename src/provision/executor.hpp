// Plan execution on the simulated cloud.
//
// Runs an ExecutionPlan end-to-end: launch the fleet, stage each
// instance's data (pre-staged EBS volumes for the grep campaign, §5.1, or
// constant-time local staging for POS, §5), run the application, terminate
// on completion, and account cost through the billing meter.  The report
// carries the per-instance bars of Figs. 8-9 (execution time vs. the
// deadline line) plus makespan, misses and instance-hours.
//
// Execution is fault-tolerant: when the provider's FaultModel injects a
// boot failure or a mid-run crash, the assignment's persistent EBS volume
// survives and the remaining bytes are recovered — either on a replacement
// instance acquired through the §4 screening procedure, or by chaining the
// work onto a surviving instance with slack (§7's detach/re-attach
// recovery), whichever is projected to finish sooner.  Retries are
// bounded; an unrecoverable assignment degrades to a structured error
// outcome instead of aborting the run.  With the default zero FaultModel
// reports are bit-identical to the historic failure-free executor.
// The instance type (planner.hpp), primary zone and nominal rate are
// constants, not options: no caller varies them.
#pragma once

#include <string>
#include <vector>

#include "cloud/app_profile.hpp"
#include "cloud/provider.hpp"
#include "cloud/workload.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "provision/planner.hpp"

namespace reshape::provision {

/// Every campaign launches its kInstanceType fleet (planner.hpp) into one
/// primary zone; the elastic controller may move capacity out of it.
inline constexpr cloud::AvailabilityZone kPrimaryZone{};

/// Effective processing rate assumed for work with no observed history:
/// the executor's slack estimates and the elastic controller's planning
/// prior.
inline constexpr Rate kNominalRate = Rate::megabytes_per_second(20.0);

struct ExecutionOptions {
  /// True: data pre-staged on one EBS volume per instance (grep, §5.1);
  /// false: staged to local disk in constant time (POS, §5).
  bool data_on_ebs = true;
  Seconds local_staging_time{180.0};
  /// Unit file size of the staged layout; 0 keeps the assignment's
  /// original segmentation (file_count from the plan).
  Bytes reshaped_unit{0};

  /// Fault recovery: replacement launches allowed per assignment.  Set to
  /// 0 to force redistribution onto survivors (or structured failure).
  int max_relaunches = 3;
  /// Screening applied to replacement instances (§4 acquisition).
  Rate relaunch_threshold = Rate::megabytes_per_second(60.0);

  /// Data-plane fault tolerance.  The retry policy governs staging and
  /// retrieval transfers when the provider's fault model injects transfer
  /// faults; with the zero model no engine runs and no extra draws occur.
  RetryPolicy transfer_retry{};
  /// Result volume as a fraction of the input; > 0 appends a per-instance
  /// retrieval phase (download of the result objects) after execution.
  double output_ratio = 0.0;
};

struct InstanceOutcome {
  std::size_t index = 0;
  cloud::InstanceId id{};  // last instance that processed this assignment
  Bytes volume{0};
  cloud::VolumeId volume_id{};  // persistent EBS home (EBS mode only)
  std::uint64_t file_count = 0;
  Seconds staging{0.0};
  Seconds exec_time{0.0};   // application run time
  Seconds retrieval{0.0};   // result-download phase (output_ratio > 0)
  Seconds work_time{0.0};   // staging + exec + retrieval (+ recovery)
  bool met_deadline = false;
  cloud::QualityClass quality = cloud::QualityClass::kFast;

  /// Fault bookkeeping (all zero under the zero FaultModel).
  bool completed = true;       // false only when recovery was exhausted
  std::string error;           // why the assignment was abandoned
  std::size_t failures = 0;    // instance failures suffered
  std::size_t relaunches = 0;  // replacement instances acquired
  Seconds recovery_time{0.0};  // wall time between failures and resumed work

  /// Data-plane bookkeeping (all zero under the zero FaultModel).
  int transfer_attempts = 0;       // staging/retrieval attempts made
  int transfer_retries = 0;        // attempts beyond the first per transfer
  Seconds transfer_retry_time{0.0};  // wall time lost to retries + backoff
  int corruptions_detected = 0;    // digest mismatches caught and retried
};

struct ExecutionReport {
  std::vector<InstanceOutcome> outcomes;
  Seconds deadline{0.0};
  Seconds makespan{0.0};  // max work_time across instances
  std::size_t missed = 0;
  double instance_hours = 0.0;
  Dollars cost{0.0};

  /// Fault/recovery aggregates (all zero under the zero FaultModel).
  std::size_t failures = 0;         // injected instance failures observed
  std::size_t relaunches = 0;       // replacements acquired via screening
  std::size_t redistributions = 0;  // remainders chained onto survivors
  std::size_t abandoned = 0;        // assignments recovery could not save
  Seconds recovery_time{0.0};       // summed over outcomes

  /// Data-plane aggregates (all zero under the zero FaultModel).
  std::size_t transfer_retries = 0;
  Seconds transfer_retry_time{0.0};
  std::size_t corruptions_detected = 0;

  [[nodiscard]] std::size_t instance_count() const { return outcomes.size(); }
  /// Worst observed-over-deadline ratio (1.0 when all met).
  [[nodiscard]] double worst_overrun() const;
  /// Outcomes not completed or with work_time over the deadline: what
  /// `missed` counts for execute_plan, applied to any driver's report.
  [[nodiscard]] std::size_t late_units() const;
};

/// The data layout one attempt over `remaining` bytes of an assignment
/// sees: the reshaped layout when the options fix a unit size, the plan's
/// own segmentation on a first full attempt, and a proportionally scaled
/// file count for a recovered remainder.  Shared by the executor and the
/// elastic controller so both price an attempt identically.
[[nodiscard]] cloud::DataLayout layout_for_remaining(
    const Assignment& assignment, const ExecutionOptions& options,
    Bytes remaining);

/// Executes the plan.  `noise` drives run-time jitter; the provider's own
/// streams drive boot/quality draws.  The provider's simulation is run to
/// completion.
[[nodiscard]] ExecutionReport execute_plan(cloud::CloudProvider& provider,
                                           const ExecutionPlan& plan,
                                           const cloud::AppCostProfile& app,
                                           const ExecutionOptions& options,
                                           Rng& noise);

}  // namespace reshape::provision
