#include "provision/executor.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "cloud/transfer.hpp"
#include "cloud/workload.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/retrieval.hpp"
#include "provision/work_unit.hpp"

namespace reshape::provision {

double ExecutionReport::worst_overrun() const {
  double worst = 1.0;
  for (const InstanceOutcome& o : outcomes) {
    if (deadline.value() > 0.0) {
      worst = std::max(worst, o.work_time.value() / deadline.value());
    }
  }
  return worst;
}

std::size_t ExecutionReport::late_units() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [this](const InstanceOutcome& o) {
                      return !o.completed || o.work_time > deadline;
                    }));
}

namespace {

/// Mutable recovery state of one assignment.  Its data lives on one
/// persistent EBS volume (EBS mode), so an instance failure loses at most
/// the in-flight pass over the remaining extent, never the data.
struct Slot : WorkUnit {
  using WorkUnit::WorkUnit;

  Attempt attempt;
  Seconds cur_retrieval{0.0};
  Seconds retrieval_total{0.0};
  bool abandoned = false;

  // Data-plane bookkeeping.
  int transfer_attempts = 0;
  int transfer_retries = 0;
  Seconds transfer_retry_time{0.0};
  int corruptions_detected = 0;
};

/// One live instance: the slot it is processing plus redistributed slots
/// queued behind it (each chained run re-attaches that slot's volume).
struct Station {
  cloud::InstanceId id{};
  Slot* awaiting = nullptr;  // assigned but still booting
  Slot* active = nullptr;    // mid staging/exec
  std::deque<Slot*> backlog;
  Seconds avail_at{0.0};  // predicted drain time of active + backlog
};

}  // namespace

cloud::DataLayout layout_for_remaining(const Assignment& assignment,
                                       const ExecutionOptions& options,
                                       Bytes remaining) {
  if (options.reshaped_unit.count() > 0) {
    return cloud::DataLayout::reshaped(remaining, options.reshaped_unit);
  }
  if (remaining == assignment.volume) {
    // First attempt: the plan's own segmentation.
    return cloud::DataLayout::original(
        assignment.volume, assignment.file_count,
        assignment.file_count > 0 ? assignment.volume / assignment.file_count
                                  : Bytes(0));
  }
  // A recovered remainder: scale the file count with the remaining volume.
  const double frac = assignment.volume.count() == 0
                          ? 0.0
                          : remaining.as_double() /
                                assignment.volume.as_double();
  const auto files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             frac * static_cast<double>(assignment.file_count)));
  return cloud::DataLayout::original(remaining, files, remaining / files);
}

namespace {

/// Screening rounds allowed per replacement acquisition (§4).
constexpr int kRelaunchScreenAttempts = 5;

/// Drives one plan to completion over the (possibly faulty) provider.
class ExecutionDriver {
 public:
  ExecutionDriver(cloud::CloudProvider& provider, const ExecutionPlan& plan,
                  const cloud::AppCostProfile& app,
                  const ExecutionOptions& options, Rng& noise)
      : provider_(provider), plan_(plan), options_(options) {
    slots_.reserve(plan.assignments.size());
    for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
      slots_.push_back(std::make_unique<Slot>(plan, i, app, noise));
    }
  }

  ExecutionReport run() {
    const std::size_t hook = provider_.add_failure_hook(
        [this](cloud::Instance& inst) { on_failure(inst); });
    try {
      for (const auto& slot : slots_) launch_for(slot.get());
      provider_.sim().run();
    } catch (...) {
      provider_.remove_failure_hook(hook);
      throw;
    }
    provider_.remove_failure_hook(hook);
    ExecutionReport report = assemble();
    // The driver-local tallies become part of the global picture only
    // when recording is on; otherwise they stay private bookkeeping.
    if (obs::enabled()) obs::metrics().merge(metrics_);
    return report;
  }

 private:
  /// Books the wait between a slot's failure and its resumed work, both
  /// into the slot's tally and the driver registry, and emits the
  /// recovery span (`mode` says how the slot came back: a backlog drain
  /// on a survivor or a screened replacement launch).
  void credit_recovery(Slot& slot, const char* mode) {
    const Seconds waited = slot.credit_recovery(provider_.sim().now());
    m_recovery_time_.add(waited.value());
    if (obs::enabled()) {
      obs::trace().complete(obs::kPidExecutor, slot.tid(), "executor",
                            "recovery", slot.failed_at.value(),
                            waited.value(),
                            {obs::arg("mode", mode),
                             obs::arg("slot", slot.index)});
    }
  }

  /// Emits the staging/exec/retrieval child spans of one finished
  /// attempt on the slot's executor track.
  void trace_attempt(const Slot& slot) {
    if (!obs::enabled()) return;
    auto& tr = obs::trace();
    const std::uint32_t tid = slot.tid();
    const Attempt& a = slot.attempt;
    const double begun = a.begun.value();
    tr.complete(obs::kPidExecutor, tid, "executor", "staging", begun,
                a.staging.value(),
                {obs::arg("instance", slot.last_instance.value)});
    tr.complete(obs::kPidExecutor, tid, "executor", "exec",
                begun + a.staging.value(), a.exec.value(),
                {obs::arg("instance", slot.last_instance.value),
                 obs::arg("bytes", a.bytes.count())});
    if (slot.cur_retrieval.value() > 0.0) {
      tr.complete(obs::kPidExecutor, tid, "executor", "retrieval",
                  begun + a.staging.value() + a.exec.value(),
                  slot.cur_retrieval.value(),
                  {obs::arg("instance", slot.last_instance.value)});
    }
  }

  void launch_for(Slot* slot) {
    const cloud::InstanceId id = provider_.launch(
        kInstanceType, kPrimaryZone,
        [this, slot](cloud::Instance& instance) {
          const auto it = stations_.find(instance.id());
          if (it == stations_.end()) return;
          begin_work(*it->second, *slot);
        });
    auto station = std::make_unique<Station>();
    station->id = id;
    station->awaiting = slot;
    station->avail_at = provider_.sim().now() +
                        provider_.config().boot_mean + estimate_work(*slot);
    stations_.emplace(id, std::move(station));
  }

  /// Staging + exec estimate for a slot's remaining bytes, used only for
  /// slack comparisons and queue predictions (never for billing).
  [[nodiscard]] Seconds estimate_work(const Slot& slot) const {
    const Seconds staging = options_.data_on_ebs
                                ? provider_.config().attach_mean
                                : options_.local_staging_time;
    if (slot.attempt.exec.value() > 0.0 && slot.attempt.bytes.count() > 0) {
      return staging + slot.attempt.exec * (slot.remaining.as_double() /
                                            slot.attempt.bytes.as_double());
    }
    // No history yet: assume the nominal effective processing rate.
    return staging + kNominalRate.time_for(slot.remaining);
  }

  /// Estimated work of the slots queued behind a station's current one.
  [[nodiscard]] Seconds queued_work(const Station& station) const {
    Seconds queued{0.0};
    for (const Slot* waiting : station.backlog) {
      queued += estimate_work(*waiting);
    }
    return queued;
  }

  void begin_work(Station& station, Slot& slot) {
    cloud::Instance& instance = provider_.instance(station.id);
    station.awaiting = nullptr;
    station.active = &slot;
    slot.ran_on(instance);

    const cloud::DataLayout layout =
        layout_for_remaining(slot.assignment, options_, slot.remaining);
    slot.note_layout(layout);

    cloud::StorageBinding storage = cloud::LocalStorage{};
    Seconds staging{0.0};
    if (options_.data_on_ebs) {
      if (!slot.volume.valid()) {
        // Pre-staged volume, created once; replacements re-attach it.
        const StagedVolume staged = stage_volume(
            provider_, slot.assignment, slot.assignment.volume, kPrimaryZone);
        slot.volume = staged.id;
        slot.data_offset = staged.offset;
      }
      const AttachedVolume attached =
          attach_volume(provider_, slot.volume, station.id, slot.data_offset);
      staging = attached.latency;
      storage = attached.storage;
    } else {
      staging = options_.local_staging_time;
      instance.stage_local(slot.remaining);
    }

    // Data-plane faults: the staging transfer runs through the retry
    // engine.  Gated on the model so the zero fault model makes no extra
    // draws and keeps historic reports bit-identical.
    const bool data_faults =
        provider_.fault_injector().model().transfer_any();
    if (data_faults) {
      const Seconds base = staging;
      const cloud::TransferChannel channel{
          [base](Rng&) { return base; },
          // A failed staging attempt dies early, before the bulk move.
          [base](Rng&) { return std::max(Seconds(0.005), base * 0.05); }};
      const std::string key =
          "stage/" + std::to_string(slot.index) + "/" +
          std::to_string(slot.failures + slot.relaunches);
      const cloud::TransferOutcome out = cloud::transfer_with_retries(
          provider_.fault_injector(), key, options_.transfer_retry, channel,
          slot.run_noise);
      slot.transfer_attempts += out.attempts;
      slot.transfer_retries += out.attempts - 1;
      slot.transfer_retry_time += out.retry_overhead();
      slot.corruptions_detected += out.corruptions_detected;
      m_xfer_retries_.add(static_cast<std::uint64_t>(
          std::max(0, out.attempts - 1)));
      m_xfer_retry_time_.add(out.retry_overhead().value());
      m_corruptions_.add(
          static_cast<std::uint64_t>(std::max(0, out.corruptions_detected)));
      cloud::record_transfer_trace(obs::kPidExecutor, slot.tid(),
                                   "staging-transfer", provider_.sim().now(),
                                   out);
      if (!out.ok) {
        abandon_on_transfer(station, slot, out.time,
                            "staging transfer failed after " +
                                std::to_string(out.attempts) +
                                " attempts (last error: " +
                                to_string(out.error) + ")");
        return;
      }
      staging = out.time;
    }

    const Seconds exec =
        cloud::run_time(slot.app, layout, instance, storage, slot.run_noise);

    // Result-retrieval phase (paper §1: less-segmented output retrieves
    // faster).  Sampled up front and charged against the deadline like
    // staging and exec.
    Seconds retrieval{0.0};
    if (options_.output_ratio > 0.0) {
      OutputSegmentation seg;
      seg.object_count = std::max<std::uint64_t>(1, layout.file_count);
      seg.total_volume = Bytes(static_cast<std::uint64_t>(
          slot.remaining.as_double() * options_.output_ratio));
      if (data_faults) {
        const std::string prefix =
            "retr/" + std::to_string(slot.index) + "/" +
            std::to_string(slot.failures + slot.relaunches);
        try {
          const SampledRetrieval sampled = retrieval_time_sampled_with_faults(
              seg, provider_.config().s3, provider_.fault_injector(),
              options_.transfer_retry, prefix, slot.run_noise);
          retrieval = sampled.total;
          slot.transfer_attempts += sampled.attempts;
          slot.transfer_retries += sampled.retries;
          slot.transfer_retry_time += sampled.retry_time;
          slot.corruptions_detected += sampled.corruptions_detected;
          m_xfer_retries_.add(
              static_cast<std::uint64_t>(std::max(0, sampled.retries)));
          m_xfer_retry_time_.add(sampled.retry_time.value());
          m_corruptions_.add(static_cast<std::uint64_t>(
              std::max(0, sampled.corruptions_detected)));
        } catch (const TransferError& failure) {
          abandon_on_transfer(station, slot, staging + exec,
                              std::string("retrieval transfer failed: ") +
                                  failure.what());
          return;
        }
      } else {
        retrieval =
            retrieval_time_sampled(seg, provider_.config().s3, slot.run_noise);
      }
    }

    const Seconds now = provider_.sim().now();
    slot.attempt = Attempt{now, staging, exec, slot.remaining, {}};
    slot.cur_retrieval = retrieval;

    slot.attempt.completion = provider_.sim().schedule_in(
        staging + exec + retrieval, [this, sid = station.id](sim::Simulation&) {
          const auto it = stations_.find(sid);
          if (it == stations_.end()) return;
          on_complete(*it->second);
        });
    station.avail_at =
        now + staging + exec + retrieval + queued_work(station);
  }

  /// A staging/retrieval transfer exhausted its retry budget after `busy`
  /// of work: the assignment degrades to a structured error.  The instance
  /// stays busy, and billed, for that time before the station moves on.
  /// If it fails meanwhile, only its backlog goes to recovery.
  void abandon_on_transfer(Station& station, Slot& slot, Seconds busy,
                           std::string why) {
    slot.work_total += busy;
    slot.abandoned = true;
    slot.error = std::move(why);
    m_abandoned_.add(1);
    if (obs::enabled()) {
      obs::trace().instant(obs::kPidExecutor, slot.tid(), "executor",
                           "abandoned", provider_.sim().now().value(),
                           {obs::arg("slot", slot.index),
                            obs::arg("reason", "transfer")});
    }
    station.active = nullptr;
    station.avail_at = provider_.sim().now() + busy + queued_work(station);
    provider_.sim().schedule_in(
        busy, [this, sid = station.id](sim::Simulation&) {
          const auto it = stations_.find(sid);
          if (it == stations_.end()) return;  // the instance failed first
          move_on(*it->second);
        });
  }

  /// The station's current work is over: drain its backlog, or terminate
  /// the instance when nothing is queued.
  void move_on(Station& station) {
    if (!station.backlog.empty()) {
      Slot* next = station.backlog.front();
      station.backlog.pop_front();
      credit_recovery(*next, "backlog");
      begin_work(station, *next);
      return;
    }
    const cloud::InstanceId id = station.id;
    stations_.erase(id);
    provider_.terminate(id);
  }

  void on_complete(Station& station) {
    Slot& slot = *station.active;
    slot.done = true;
    slot.staging_total += slot.attempt.staging;
    slot.exec_total += slot.attempt.exec;
    slot.retrieval_total += slot.cur_retrieval;
    slot.work_total +=
        slot.attempt.staging + slot.attempt.exec + slot.cur_retrieval;
    trace_attempt(slot);
    station.active = nullptr;
    move_on(station);
  }

  void on_failure(cloud::Instance& instance) {
    m_failures_.add(1);
    const auto it = stations_.find(instance.id());
    if (it == stations_.end()) return;  // a discarded screening candidate
    const std::unique_ptr<Station> station = std::move(it->second);
    stations_.erase(it);
    const Seconds now = provider_.sim().now();
    const std::string_view kind =
        instance.failure() ? to_string(instance.failure()->kind) : "unknown";

    if (Slot* waiting = station->awaiting) {
      // Boot failure: no work started, the full remainder survives.
      ++waiting->failures;
      waiting->failed_at = now;
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, waiting->tid(),
                             "executor", "crash", now.value(),
                             {obs::arg("slot", waiting->index),
                              obs::arg("phase", "boot"),
                              obs::arg("kind", kind)});
      }
      recover(waiting);
    } else if (Slot* slot = station->active) {
      // Mid-run crash: the linear-progress prefix of this attempt is kept.
      // Time spent in the retrieval phase is lost outright (results are
      // re-downloaded on recovery).
      provider_.sim().cancel(slot->attempt.completion);
      const Seconds elapsed = now - slot->attempt.begun;
      slot->charge_crash(slot->attempt, elapsed);
      const double progress = slot->bank_progress(slot->attempt, elapsed);
      slot->failed_at = now;
      if (obs::enabled()) {
        obs::trace().complete(obs::kPidExecutor, slot->tid(), "executor",
                              "attempt#crashed", slot->attempt.begun.value(),
                              elapsed.value(),
                              {obs::arg("slot", slot->index),
                               obs::arg("instance", instance.id().value),
                               obs::arg("progress", progress)});
        obs::trace().instant(obs::kPidExecutor, slot->tid(), "executor",
                             "crash", now.value(),
                             {obs::arg("slot", slot->index),
                              obs::arg("phase", "work"),
                              obs::arg("kind", kind)});
      }
      recover(slot);
    }
    // Redistributed slots that were queued behind the dead instance go
    // back through recovery untouched (their failed_at keeps accruing
    // recovery time from their original failure).
    for (Slot* queued : station->backlog) recover(queued);
  }

  void recover(Slot* slot) {
    if (slot->done || slot->abandoned) return;
    if (slot->remaining.count() == 0) {
      // The crash struck after the last byte was processed.
      slot->done = true;
      return;
    }
    const Seconds now = provider_.sim().now();
    const Station* host = best_host();
    const bool can_replace =
        slot->relaunches <
        static_cast<std::size_t>(std::max(0, options_.max_relaunches));

    // Slack-aware choice: staging + exec cost roughly the same on either
    // path, so compare dead time — a fresh boot (plus screening) against
    // the wait for the best survivor to drain its queue.
    const double replace_wait =
        (provider_.config().boot_mean + provider_.config().attach_mean)
            .value();
    const double host_wait =
        host ? std::max(0.0, (host->avail_at - now).value())
             : std::numeric_limits<double>::infinity();

    if (can_replace && replace_wait <= host_wait) {
      if (try_replace(slot)) return;
    }
    // Screening runs the simulation forward, so the fleet may have changed
    // under us (survivors can fail mid-acquisition): pick the host afresh.
    if (Station* survivor = best_host()) {
      redistribute(slot, *survivor);
      return;
    }
    if (can_replace && try_replace(slot)) return;
    slot->abandoned = true;
    slot->error = "recovery exhausted: no replacement within the relaunch "
                  "budget and no surviving instance to redistribute to";
    m_abandoned_.add(1);
    if (obs::enabled()) {
      obs::trace().instant(obs::kPidExecutor, slot->tid(), "executor",
                           "abandoned", provider_.sim().now().value(),
                           {obs::arg("slot", slot->index),
                            obs::arg("reason", "recovery_exhausted")});
    }
  }

  [[nodiscard]] Station* best_host() {
    Station* best = nullptr;
    for (auto& [id, station] : stations_) {
      if (best == nullptr ||
          station->avail_at < best->avail_at ||
          (station->avail_at == best->avail_at &&
           station->id.value < best->id.value)) {
        best = station.get();
      }
    }
    return best;
  }

  bool try_replace(Slot* slot) {
    try {
      // §4 acquisition: launch, boot, benchmark twice, keep only a stable
      // fast instance.  Runs the simulation forward internally, so other
      // fleet events (including further failures) interleave naturally.
      const auto acq = provider_.acquire_screened(
          kInstanceType, kPrimaryZone, options_.relaunch_threshold,
          kRelaunchScreenAttempts);
      ++slot->relaunches;
      m_relaunches_.add(1);
      auto station = std::make_unique<Station>();
      station->id = acq.id;
      Station* raw = station.get();
      stations_.emplace(acq.id, std::move(station));
      credit_recovery(*slot, "relaunch");
      begin_work(*raw, *slot);
      return true;
    } catch (const Error&) {
      return false;  // screening exhausted its attempt budget
    }
  }

  void redistribute(Slot* slot, Station& host) {
    host.backlog.push_back(slot);
    host.avail_at += estimate_work(*slot);
    m_redistributions_.add(1);
  }

  [[nodiscard]] ExecutionReport assemble() {
    ExecutionReport report;
    report.deadline = plan_.deadline;
    report.outcomes.resize(slots_.size());
    for (const auto& slot : slots_) {
      InstanceOutcome& outcome = report.outcomes[slot->index];
      outcome = slot->outcome("assignment never completed");
      outcome.retrieval = slot->retrieval_total;
      outcome.transfer_attempts = slot->transfer_attempts;
      outcome.transfer_retries = slot->transfer_retries;
      outcome.transfer_retry_time = slot->transfer_retry_time;
      outcome.corruptions_detected = slot->corruptions_detected;
      outcome.met_deadline =
          slot->done && outcome.work_time <= plan_.deadline;
      if (!outcome.met_deadline) ++report.missed;
      // A slot that never finished without being explicitly abandoned
      // (the simulation drained first) still counts as abandoned.
      if (!slot->done && !slot->abandoned) m_abandoned_.add(1);
      report.makespan = std::max(report.makespan, outcome.work_time);
    }
    // The aggregate tallies come straight from the driver registry — the
    // event sites are the single source of truth.
    report.failures = static_cast<std::size_t>(m_failures_.value());
    report.relaunches = static_cast<std::size_t>(m_relaunches_.value());
    report.redistributions =
        static_cast<std::size_t>(m_redistributions_.value());
    report.abandoned = static_cast<std::size_t>(m_abandoned_.value());
    report.recovery_time = Seconds(m_recovery_time_.value());
    report.transfer_retries =
        static_cast<std::size_t>(m_xfer_retries_.value());
    report.transfer_retry_time = Seconds(m_xfer_retry_time_.value());
    report.corruptions_detected =
        static_cast<std::size_t>(m_corruptions_.value());
    report.instance_hours =
        provider_.billing().instance_hours(provider_.sim().now());
    report.cost = provider_.billing().total_cost(provider_.sim().now());
    return report;
  }

  cloud::CloudProvider& provider_;
  const ExecutionPlan& plan_;
  const ExecutionOptions& options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<cloud::InstanceId, std::unique_ptr<Station>> stations_;

  // One source of truth for the report's fault/data-plane aggregates: a
  // driver-local registry incremented at the event sites (instead of the
  // former ad-hoc size_t members), read back in assemble() and merged
  // into the global registry when recording is on.  The instrument
  // references are cached once; counting stays O(1) per event.
  obs::MetricsRegistry metrics_;
  obs::Counter& m_failures_ = metrics_.counter("executor.failures");
  obs::Counter& m_relaunches_ = metrics_.counter("executor.relaunches");
  obs::Counter& m_redistributions_ =
      metrics_.counter("executor.redistributions");
  obs::Counter& m_abandoned_ = metrics_.counter("executor.abandoned");
  obs::Counter& m_xfer_retries_ =
      metrics_.counter("executor.transfer.retries");
  obs::Counter& m_corruptions_ =
      metrics_.counter("executor.transfer.corruptions_detected");
  obs::Gauge& m_xfer_retry_time_ =
      metrics_.gauge("executor.transfer.retry_time_s");
  obs::Gauge& m_recovery_time_ = metrics_.gauge("executor.recovery_time_s");
};

}  // namespace

ExecutionReport execute_plan(cloud::CloudProvider& provider,
                             const ExecutionPlan& plan,
                             const cloud::AppCostProfile& app,
                             const ExecutionOptions& options, Rng& noise) {
  RESHAPE_REQUIRE(!plan.assignments.empty(), "plan has no assignments");
  ExecutionDriver driver(provider, plan, app, options, noise);
  return driver.run();
}

}  // namespace reshape::provision
