#include "provision/controller.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "cloud/workload.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "provision/straggler.hpp"
#include "provision/work_unit.hpp"

namespace reshape::provision {

double CampaignReport::deadline_hit_rate() const {
  if (execution.outcomes.empty()) return 0.0;
  std::size_t hit = 0;
  for (const InstanceOutcome& o : execution.outcomes) {
    if (o.met_deadline) ++hit;
  }
  return static_cast<double>(hit) /
         static_cast<double>(execution.outcomes.size());
}

namespace {

constexpr std::size_t kNoUnit = std::numeric_limits<std::size_t>::max();

/// Fleet ceiling (live members), counting the initial fleet.
constexpr std::size_t kMaxFleet = 64;
/// This many member failures in one zone within one epoch mark the zone
/// suspect (an AZ-outage fault does so at once).
constexpr std::size_t kAzEpisodeThreshold = 2;

std::uint64_t unit_digest(const WorkUnit& unit) {
  Digest64 digest;
  digest.update_u64(static_cast<std::uint64_t>(unit.index));
  digest.update_u64(unit.assignment.volume.count());
  digest.update_u64(unit.assignment.file_count);
  return digest.value();
}

/// One work unit (a plan assignment).  Its bytes live on a persistent EBS
/// volume in `volume_zone`; a cross-AZ move re-stages the remainder onto
/// a fresh volume in the new zone.  It resolves exactly once: done or
/// shed.
struct Unit : WorkUnit {
  using WorkUnit::WorkUnit;

  cloud::AvailabilityZone volume_zone{};
  /// Admission digest over the unit's immutable identity; re-derived and
  /// verified at completion.
  std::uint64_t digest = unit_digest(*this);
  bool shed = false;
  std::size_t completions = 0;

  // Speculative race: member slots currently attempting this unit.  While
  // more than one contender is live, crash-time prefix banking is off (the
  // contenders read divergent copies of the same extent).
  std::vector<std::size_t> contenders;
  bool racing = false;

  int attempts = 0;  // attempts begun, hedges included
  Seconds first_work_begun{0.0};
  Seconds finished_at{0.0};
  bool pending_recovery = false;
  bool speculative_won = false;  // completed by a speculative duplicate
};

/// One fleet slot.  Slots are stable for the campaign (the straggler
/// detector keys on them); the instance occupying a slot changes across
/// boot retries and replacements.
struct Member {
  std::size_t slot = 0;
  enum class State { kBooting, kWorking, kGone } state = State::kBooting;
  cloud::InstanceId id{};
  cloud::AvailabilityZone zone{};
  /// Unit to work on at boot; kNoUnit pulls from the pending queue.
  std::size_t assigned = kNoUnit;
  bool speculative = false;

  // In-flight attempt.
  std::size_t unit = kNoUnit;
  Attempt attempt;

  int boot_attempts = 0;
};

/// Drives one campaign: units, fleet slots and the epoch chain.
class ElasticController {
 public:
  ElasticController(cloud::CloudProvider& provider, const ExecutionPlan& plan,
                    const cloud::AppCostProfile& app,
                    const ExecutionOptions& base,
                    const ElasticOptions& options, Rng& noise)
      : provider_(provider), plan_(plan), base_(base), options_(options),
        backoff_rng_(noise.split("controller-backoff")) {
    units_.reserve(plan.assignments.size());
    for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
      units_.push_back(std::make_unique<Unit>(plan, i, app, noise));
    }
  }

  CampaignReport run() {
    start_ = provider_.sim().now();
    const std::size_t hook = provider_.add_failure_hook(
        [this](cloud::Instance& inst) { on_failure(inst); });
    try {
      for (std::size_t i = 0; i < units_.size(); ++i) {
        launch_member(i, kPrimaryZone, /*speculative=*/false,
                      /*charge_budget=*/false);
      }
      epoch_event_ = provider_.sim().schedule_in(
          options_.epoch, [this](sim::Simulation&) { on_epoch(); });
      provider_.sim().run();
    } catch (...) {
      provider_.remove_failure_hook(hook);
      throw;
    }
    provider_.remove_failure_hook(hook);
    CampaignReport report = assemble();
    if (obs::enabled()) obs::metrics().merge(metrics_);
    return report;
  }

 private:
  [[nodiscard]] Seconds deadline_abs() const { return start_ + plan_.deadline; }

  /// Records a resolved attempt as a complete span with its *actual*
  /// duration and staging/exec split.  Attempts are traced at resolution
  /// (completion, crash, race loss) rather than launch, so a truncated
  /// attempt never shows its planned length in the flight recorder.
  void record_attempt(const Unit& unit, const Member& member,
                      std::string_view name, Seconds end) {
    if (!obs::enabled()) return;
    const Attempt& a = member.attempt;
    const Seconds elapsed = end - a.begun;
    const double staging_s = std::min(elapsed, a.staging).value();
    const double exec_s =
        std::clamp((elapsed - a.staging).value(), 0.0, a.exec.value());
    obs::trace().complete(
        obs::kPidExecutor, unit.tid(), "controller", name,
        a.begun.value(), elapsed.value(),
        {obs::arg("unit", unit.index), obs::arg("slot", member.slot),
         obs::arg("instance", member.id.value),
         obs::arg("bytes", a.bytes.count()),
         obs::arg("staging_s", staging_s), obs::arg("exec_s", exec_s),
         obs::arg("hedge", member.speculative)});
  }

  // -- fleet ----------------------------------------------------------------

  [[nodiscard]] std::size_t live_members() const {
    std::size_t n = 0;
    for (const auto& m : members_) {
      if (m->state != Member::State::kGone) ++n;
    }
    return n;
  }

  /// Whether one more launch fits the fleet cap and acquisition budget.
  [[nodiscard]] bool can_acquire() const {
    return live_members() < kMaxFleet &&
           acquisitions_ < static_cast<std::size_t>(
                               std::max(0, options_.acquisition_budget));
  }

  /// Zones new capacity may go to: the primary first, then the other
  /// indexes of its region as fallbacks.
  [[nodiscard]] static std::vector<cloud::AvailabilityZone> zone_candidates() {
    std::vector<cloud::AvailabilityZone> zones{kPrimaryZone};
    for (std::uint8_t step = 1; step < 4; ++step) {
      zones.push_back(cloud::AvailabilityZone{
          kPrimaryZone.region,
          static_cast<std::uint8_t>((kPrimaryZone.index + step) % 4)});
    }
    return zones;
  }

  [[nodiscard]] bool suspect(const cloud::AvailabilityZone& zone) const {
    return std::find(suspect_zones_.begin(), suspect_zones_.end(), zone) !=
           suspect_zones_.end();
  }

  void mark_suspect(const cloud::AvailabilityZone& zone) {
    if (suspect(zone)) return;
    suspect_zones_.push_back(zone);
    m_suspect_zones_.add(1);
    if (obs::enabled()) {
      obs::trace().instant(obs::kPidExecutor, 0, "controller", "zone-suspect",
                           provider_.sim().now().value(),
                           {obs::arg("zone", zone.name())});
    }
  }

  /// The zone the next launch goes to: the primary while it is healthy,
  /// otherwise round-robin over the healthy fallbacks (deterministic).
  [[nodiscard]] cloud::AvailabilityZone pick_zone() {
    const std::vector<cloud::AvailabilityZone> zones = zone_candidates();
    std::vector<cloud::AvailabilityZone> healthy;
    for (const auto& z : zones) {
      if (!suspect(z)) healthy.push_back(z);
    }
    if (healthy.empty()) return kPrimaryZone;  // nowhere better to go
    if (healthy.front() == kPrimaryZone) return kPrimaryZone;
    const cloud::AvailabilityZone pick =
        healthy[zone_rr_ % healthy.size()];
    ++zone_rr_;
    return pick;
  }

  /// Launches an instance into a (new or reused) fleet slot.  `assigned`
  /// fixes the unit the member starts on (kNoUnit pulls from pending).
  Member& launch_member(std::size_t assigned, cloud::AvailabilityZone zone,
                        bool speculative, bool charge_budget) {
    auto member = std::make_unique<Member>();
    member->slot = members_.size();
    member->assigned = assigned;
    member->speculative = speculative;
    Member& ref = *member;
    members_.push_back(std::move(member));
    boot(ref, zone, charge_budget);
    return ref;
  }

  /// (Re)boots a member's instance in `zone`.
  void boot(Member& member, cloud::AvailabilityZone zone, bool charge_budget) {
    member.state = Member::State::kBooting;
    member.zone = zone;
    if (charge_budget) {
      ++acquisitions_;
      m_acquisitions_.add(1);
    }
    member.id = provider_.launch(
        kInstanceType, zone,
        [this, slot = member.slot](cloud::Instance& instance) {
          Member& m = *members_[slot];
          if (m.id != instance.id()) return;  // a superseded boot
          on_boot(m);
        });
    by_id_[member.id] = member.slot;
  }

  void on_boot(Member& member) {
    if (member.assigned != kNoUnit) {
      Unit& unit = *units_[member.assigned];
      const std::size_t target = member.assigned;
      member.assigned = kNoUnit;
      if (!resolved(unit)) {
        begin_work(member, target);
        return;
      }
    }
    dispatch_next(member);
  }

  /// Gives an idle (just booted or just freed) member its next unit, or
  /// releases it when no work is pending.
  void dispatch_next(Member& member) {
    while (!pending_.empty()) {
      const std::size_t index = pending_.front();
      pending_.pop_front();
      // Already resolved, or already being worked by a live contender (a
      // hedge that out-booted the queue): starting it again here would
      // duplicate work unintentionally.
      if (resolved(*units_[index]) || !units_[index]->contenders.empty()) {
        continue;
      }
      begin_work(member, index);
      return;
    }
    release(member);
  }

  void release(Member& member) {
    if (member.state == Member::State::kWorking) {
      if (member.unit != kNoUnit) {
        record_attempt(*units_[member.unit], member,
                       member.speculative ? "attempt#hedge-lost"
                                          : "attempt#lost",
                       provider_.sim().now());
      }
      provider_.sim().cancel(member.attempt.completion);
    }
    member.state = Member::State::kGone;
    member.unit = kNoUnit;
    detector_.forget(member.slot);
    if (member.id.valid() && provider_.exists(member.id)) {
      cloud::Instance& inst = provider_.instance(member.id);
      if (inst.is_running()) {
        by_id_.erase(member.id);
        provider_.terminate(member.id);
        ++releases_;
      }
    }
    maybe_finish();
  }

  // -- attempts -------------------------------------------------------------

  /// Deterministic cost of re-staging `bytes` from the object store into a
  /// fresh volume (cross-AZ move or speculative copy).
  [[nodiscard]] Seconds restage_cost(Bytes bytes) const {
    const cloud::S3Model& s3 = provider_.config().s3;
    return s3.request_latency_mean + s3.transfer_rate.time_for(bytes);
  }

  void begin_work(Member& member, std::size_t index) {
    Unit& unit = *units_[index];
    cloud::Instance& instance = provider_.instance(member.id);
    member.state = Member::State::kWorking;
    member.unit = index;
    unit.contenders.push_back(member.slot);
    unit.racing = unit.contenders.size() > 1;
    unit.ran_on(instance);
    if (unit.pending_recovery) {
      m_recovery_time_.add(
          unit.credit_recovery(provider_.sim().now()).value());
      unit.pending_recovery = false;
    }

    Seconds staging{0.0};
    cloud::StorageBinding storage = cloud::LocalStorage{};
    if (base_.data_on_ebs) {
      cloud::VolumeId vol_id = unit.volume;
      Bytes offset = unit.data_offset;
      const bool needs_copy =
          !vol_id.valid() || unit.volume_zone != member.zone ||
          member.speculative;
      if (needs_copy) {
        const bool had_volume = vol_id.valid();
        const StagedVolume staged = stage_volume(provider_, unit.assignment,
                                                 unit.remaining, member.zone);
        vol_id = staged.id;
        offset = staged.offset;
        if (had_volume) {
          // The remainder must travel through the object store: the old
          // volume cannot leave its zone (and a racing copy must not
          // share the original's spindle).
          staging += restage_cost(unit.remaining);
          if (unit.volume_zone != member.zone) {
            ++cross_az_moves_;
            m_cross_az_.add(1);
            if (obs::enabled()) {
              obs::trace().instant(
                  obs::kPidExecutor, unit.tid(), "controller",
                  "cross-az-move", provider_.sim().now().value(),
                  {obs::arg("unit", unit.index),
                   obs::arg("from", unit.volume_zone.name()),
                   obs::arg("to", member.zone.name())});
            }
          }
        }
        if (!member.speculative) {
          unit.volume = vol_id;
          unit.volume_zone = member.zone;
          unit.data_offset = offset;
        }
      }
      const AttachedVolume attached =
          attach_volume(provider_, vol_id, member.id, offset);
      staging += attached.latency;
      storage = attached.storage;
    } else {
      staging = base_.local_staging_time;
      instance.stage_local(unit.remaining);
    }

    const cloud::DataLayout layout =
        layout_for_remaining(unit.assignment, base_, unit.remaining);
    unit.note_layout(layout);
    Rng attempt_noise =
        unit.run_noise.split(static_cast<std::uint64_t>(unit.attempts++));
    const Seconds exec =
        cloud::run_time(unit.app, layout, instance, storage, attempt_noise);

    const Seconds now = provider_.sim().now();
    if (unit.attempts == 1) unit.first_work_begun = now;
    member.attempt = Attempt{now, staging, exec, unit.remaining, {}};
    member.attempt.completion = provider_.sim().schedule_in(
        staging + exec, [this, slot = member.slot](sim::Simulation&) {
          on_complete(*members_[slot]);
        });
  }

  void drop_contender(Unit& unit, std::size_t slot) {
    unit.contenders.erase(
        std::remove(unit.contenders.begin(), unit.contenders.end(), slot),
        unit.contenders.end());
    unit.racing = unit.contenders.size() > 1;
  }

  /// Resolves `unit` as completed at `at`, exactly once and intact.
  void mark_done(Unit& unit, Seconds at) {
    ++unit.completions;
    RESHAPE_REQUIRE(unit.completions == 1, "a unit completed more than once");
    RESHAPE_REQUIRE(unit_digest(unit) == unit.digest,
                    "unit digest mismatch at completion");
    unit.done = true;
    unit.finished_at = at;
    if (obs::enabled()) {
      obs::trace().instant(obs::kPidExecutor, unit.tid(), "controller",
                           "unit-done", at.value(),
                           {obs::arg("unit", unit.index),
                            obs::arg("attempts", unit.attempts)});
    }
  }

  void on_complete(Member& member) {
    Unit& unit = *units_[member.unit];
    RESHAPE_REQUIRE(!resolved(unit), "completion for an already-resolved unit");
    const Attempt& a = member.attempt;
    unit.staging_total += a.staging;
    unit.exec_total += a.exec;
    unit.work_total += a.staging + a.exec;
    unit.ran_on(provider_.instance(member.id));

    const Seconds now = provider_.sim().now();
    record_attempt(unit, member,
                   member.speculative ? "attempt#hedge" : "attempt", now);
    mark_done(unit, now);
    unit.speculative_won = member.speculative;
    unit.remaining = Bytes(0);

    bank_.observe(a.bytes, a.staging + a.exec);

    // Resolve the race: this completion fired first, so by the engine's
    // FIFO tiebreak it is the (seq, slot)-minimal finisher — the same
    // winner speculative_winner() names.  Losers are cancelled and their
    // instances move on.
    const bool was_racing = unit.racing;
    const std::vector<std::size_t> losers = [&] {
      std::vector<std::size_t> others;
      for (const std::size_t slot : unit.contenders) {
        if (slot != member.slot) others.push_back(slot);
      }
      return others;
    }();
    unit.contenders.clear();
    unit.racing = false;
    if (was_racing) {
      if (member.speculative) {
        ++speculative_wins_;
      } else {
        ++speculative_losses_;
      }
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, unit.tid(), "controller",
                             "race-resolved", unit.finished_at.value(),
                             {obs::arg("unit", unit.index),
                              obs::arg("winner_slot", member.slot),
                              obs::arg("speculative_won", member.speculative)});
      }
    }

    member.state = Member::State::kBooting;  // transitional; re-dispatched
    member.unit = kNoUnit;
    member.speculative = false;
    detector_.forget(member.slot);
    for (const std::size_t loser_slot : losers) {
      Member& loser = *members_[loser_slot];
      if (loser.state == Member::State::kWorking) {
        record_attempt(unit, loser,
                       loser.speculative ? "attempt#hedge-lost"
                                         : "attempt#lost",
                       unit.finished_at);
        provider_.sim().cancel(loser.attempt.completion);
      }
      loser.unit = kNoUnit;
      loser.speculative = false;
      detector_.forget(loser.slot);
      // The loser's instance is still healthy; put it to work.
      if (loser.state == Member::State::kWorking) {
        loser.state = Member::State::kBooting;
        dispatch_next(loser);
      }
    }
    dispatch_next(member);
  }

  // -- failure handling -----------------------------------------------------

  void on_failure(cloud::Instance& instance) {
    const auto it = by_id_.find(instance.id());
    if (it == by_id_.end()) return;
    Member& member = *members_[it->second];
    by_id_.erase(it);
    if (member.state == Member::State::kGone) return;
    m_failures_.add(1);
    const Seconds now = provider_.sim().now();
    const cloud::FailureKind kind = instance.failure()
                                        ? instance.failure()->kind
                                        : cloud::FailureKind::kCrash;
    note_zone_failure(member.zone, kind);

    if (member.state == Member::State::kBooting) {
      ++boot_failures_;
      m_boot_failures_.add(1);
      retry_boot(member);
      return;
    }

    // A working member died.
    provider_.sim().cancel(member.attempt.completion);
    Unit& unit = *units_[member.unit];
    const std::size_t unit_index = member.unit;
    member.state = Member::State::kGone;
    member.unit = kNoUnit;
    detector_.forget(member.slot);
    const Seconds elapsed = now - member.attempt.begun;
    unit.charge_crash(member.attempt, elapsed);
    record_attempt(unit, member, "attempt#crashed", now);

    if (unit.racing) {
      // Race semantics: contenders read divergent copies, so no prefix is
      // banked — the survivor simply continues alone.
      drop_contender(unit, member.slot);
      const bool was_speculative = member.speculative;
      member.speculative = false;
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, unit.tid(), "controller",
                             "race-contender-lost", now.value(),
                             {obs::arg("unit", unit.index),
                              obs::arg("slot", member.slot),
                              obs::arg("speculative", was_speculative)});
      }
      if (!unit.contenders.empty()) return;
      // Both contenders died: back to the queue, no banking.
      unit.failed_at = now;
      unit.pending_recovery = true;
      pending_.push_front(unit_index);
      replace_capacity();
      return;
    }

    drop_contender(unit, member.slot);
    member.speculative = false;
    const double progress = unit.bank_progress(member.attempt, elapsed);
    if (obs::enabled()) {
      obs::trace().instant(obs::kPidExecutor, unit.tid(), "controller",
                           "crash", now.value(),
                           {obs::arg("unit", unit.index),
                            obs::arg("kind", to_string(kind)),
                            obs::arg("progress", progress)});
    }
    if (unit.remaining.count() == 0) {
      // The crash struck after the last byte was processed.
      mark_done(unit, now);
      maybe_finish();
      return;
    }
    unit.failed_at = now;
    unit.pending_recovery = true;
    ++unit.relaunches;
    pending_.push_front(unit_index);
    replace_capacity();
  }

  /// Launches one replacement member for lost capacity, if the budget
  /// allows; otherwise the pending unit waits for the next epoch's
  /// re-plan (or the campaign degrades).
  void replace_capacity() {
    if (!can_acquire()) return;
    launch_member(kNoUnit, pick_zone(), /*speculative=*/false,
                  /*charge_budget=*/true);
  }

  void retry_boot(Member& member) {
    const std::size_t assigned = member.assigned;
    ++member.boot_attempts;
    if (member.boot_attempts >= acquisition_retry_.max_attempts ||
        !can_acquire()) {
      member.state = Member::State::kGone;
      if (assigned != kNoUnit && !resolved(*units_[assigned])) {
        Unit& unit = *units_[assigned];
        drop_contender(unit, member.slot);
        if (member.speculative) {
          member.speculative = false;
          maybe_finish();
          return;  // the original attempt is still running
        }
        unit.failed_at = provider_.sim().now();
        unit.pending_recovery = true;
        pending_.push_front(assigned);
      }
      maybe_finish();
      return;
    }
    const Seconds backoff = acquisition_retry_.jittered_backoff(
        member.boot_attempts - 1, backoff_rng_);
    provider_.sim().schedule_in(
        backoff, [this, slot = member.slot](sim::Simulation&) {
          Member& m = *members_[slot];
          if (m.state != Member::State::kBooting) return;
          if (m.assigned != kNoUnit && resolved(*units_[m.assigned])) {
            m.state = Member::State::kGone;
            maybe_finish();
            return;
          }
          boot(m, pick_zone(), /*charge_budget=*/true);
        });
  }

  void note_zone_failure(const cloud::AvailabilityZone& zone,
                         cloud::FailureKind kind) {
    if (kind == cloud::FailureKind::kAzOutage) {
      mark_suspect(zone);
      return;
    }
    for (auto& [z, count] : zone_failures_) {
      if (z == zone) {
        if (++count >= kAzEpisodeThreshold) mark_suspect(zone);
        return;
      }
    }
    zone_failures_.emplace_back(zone, 1);
  }

  // -- the epoch loop -------------------------------------------------------

  [[nodiscard]] static bool resolved(const Unit& unit) {
    return unit.done || unit.shed;
  }

  [[nodiscard]] bool work_unresolved() const {
    for (const auto& unit : units_) {
      if (!resolved(*unit)) return true;
    }
    return false;
  }

  /// Ends the campaign when every unit is resolved: the epoch chain stops
  /// and the fleet drains.
  void maybe_finish() {
    if (finishing_) return;
    if (work_unresolved()) return;
    finishing_ = true;
    provider_.sim().cancel(epoch_event_);
    for (auto& member : members_) {
      if (member->state == Member::State::kGone) continue;
      release(*member);
    }
    finishing_ = false;
  }

  /// Pending bytes: unresolved units no live member is working on or
  /// booting toward.  One pass marks the units booting members are bound
  /// to, so a call is O(units + members): the shed loop calls it once per
  /// shed unit.
  [[nodiscard]] Bytes pending_bytes() const {
    std::vector<bool> booting_toward(units_.size(), false);
    for (const auto& m : members_) {
      if (m->state == Member::State::kBooting && m->assigned != kNoUnit) {
        booting_toward[m->assigned] = true;
      }
    }
    Bytes total{0};
    for (const auto& unit : units_) {
      if (resolved(*unit) || !unit->contenders.empty() ||
          booting_toward[unit->index]) {
        continue;
      }
      total += unit->remaining;
    }
    return total;
  }

  /// Bytes the current fleet can still serve by the deadline under
  /// `predictor`: each unassigned booting member contributes one full
  /// provisioning-adjusted capacity; each working member contributes what
  /// fits between its projected finish and the deadline.
  [[nodiscard]] Bytes fleet_serveable(const model::Predictor& predictor,
                                      Bytes fresh_capacity) const {
    Bytes total(fresh_capacity.count() *
                static_cast<std::uint64_t>(unassigned_booting()));
    for (const auto& m : members_) {
      if (m->state != Member::State::kWorking) continue;
      const Seconds finish =
          m->attempt.begun + m->attempt.staging + m->attempt.exec;
      const Seconds residual =
          deadline_abs() - finish - provider_.config().attach_mean;
      if (residual.value() <= 0.0) continue;
      total += predictor.max_volume_within(residual);
    }
    return total;
  }

  [[nodiscard]] std::size_t unassigned_booting() const {
    std::size_t n = 0;
    for (const auto& m : members_) {
      if (m->state == Member::State::kBooting && m->assigned == kNoUnit) ++n;
    }
    return n;
  }

  void on_epoch() {
    const auto wall_begin = std::chrono::steady_clock::now();
    ++epoch_seq_;
    EpochDecision decision;
    decision.seq = epoch_seq_;
    decision.at = provider_.sim().now();
    zone_failures_.clear();

    // (a) Progress reports and straggler flags.  A slot's normalized rate
    // is its attempt's complexity-weighted effective throughput, so slots
    // chewing harder text are not mistaken for slow instances.
    for (const auto& m : members_) {
      if (m->state != Member::State::kWorking) continue;
      const Unit& unit = *units_[m->unit];
      const double span = (m->attempt.staging + m->attempt.exec).value();
      if (span <= 0.0) continue;
      detector_.ingest(ProgressReport{
          m->slot, epoch_seq_,
          m->attempt.bytes.as_double() * unit.assignment.mean_complexity /
              span});
    }
    decision.flagged = detector_.flag(epoch_seq_);
    m_flagged_.add(decision.flagged.size());
    stragglers_flagged_ += decision.flagged.size();
    if (obs::enabled()) {
      for (const std::uint64_t slot : decision.flagged) {
        const Member& m = *members_[static_cast<std::size_t>(slot)];
        if (m.state != Member::State::kWorking) continue;
        obs::trace().instant(obs::kPidExecutor, units_[m.unit]->tid(),
                             "controller", "straggler-flagged",
                             decision.at.value(),
                             {obs::arg("slot", slot),
                              obs::arg("unit", units_[m.unit]->index),
                              obs::arg("epoch", decision.seq)});
      }
    }

    // Hedge each flagged slot with one speculative duplicate.
    for (const std::uint64_t slot : decision.flagged) {
      Member& m = *members_[static_cast<std::size_t>(slot)];
      if (m.state != Member::State::kWorking) continue;
      Unit& unit = *units_[m.unit];
      if (unit.racing || resolved(unit)) continue;
      if (!can_acquire()) break;
      launch_member(unit.index, pick_zone(), /*speculative=*/true,
                    /*charge_budget=*/true);
      unit.racing = true;  // banking freezes from the hedge launch on
      ++decision.hedges_launched;
      ++hedges_launched_;
      m_hedges_.add(1);
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, unit.tid(), "controller",
                             "hedge-launched", decision.at.value(),
                             {obs::arg("unit", unit.index),
                              obs::arg("straggler_slot", slot)});
      }
    }

    // (b) Refresh the cost model from the campaign's own evidence.
    const model::Predictor predictor = bank_.fitted(prior_predictor_);

    const Bytes backlog = pending_bytes();
    decision.bytes_remaining = backlog;
    for (const auto& unit : units_) {
      if (resolved(*unit)) continue;
      if (unit->contenders.empty()) {
        ++decision.units_pending;
      } else {
        decision.bytes_remaining += unit->remaining;
      }
    }
    decision.live_members = live_members();

    // Re-plan: does the fleet we can field still serve the backlog by the
    // deadline under the refreshed model?  A fresh launch pays boot +
    // attach before its capacity window opens.
    bool infeasible = false;
    const Seconds slack = deadline_abs() - provider_.sim().now() -
                          provider_.config().boot_mean -
                          provider_.config().attach_mean;
    const Bytes fresh_capacity = slack.value() > 0.0
                                     ? predictor.max_volume_within(slack)
                                     : Bytes(0);
    m_replans_.add(1);
    if (backlog.count() > 0) {
      Bytes serveable = fleet_serveable(predictor, fresh_capacity);
      while (backlog.count() > serveable.count() &&
             fresh_capacity.count() > 0 && can_acquire()) {
        launch_member(kNoUnit, pick_zone(), /*speculative=*/false,
                      /*charge_budget=*/true);
        serveable += fresh_capacity;
        ++decision.acquired;
      }
      infeasible = backlog.count() > serveable.count();
    }

    // (c) Shed when the deadline is out of reach at full budget.
    if (infeasible) {
      decision.degraded = true;
      degraded_ = true;
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, 0, "controller", "degrade",
                             decision.at.value(),
                             {obs::arg("policy", "shed-lowest-value"),
                              obs::arg("epoch", decision.seq),
                              obs::arg("backlog_bytes", backlog.count())});
      }
      shed_until_feasible(decision, predictor, fresh_capacity);
    }

    if (obs::enabled()) {
      obs::trace().instant(
          obs::kPidExecutor, 0, "controller", "epoch", decision.at.value(),
          {obs::arg("seq", decision.seq),
           obs::arg("live_members", decision.live_members),
           obs::arg("units_pending", decision.units_pending),
           obs::arg("flagged", decision.flagged.size()),
           obs::arg("acquired", decision.acquired),
           obs::arg("degraded", decision.degraded)});
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_begin)
              .count();
      m_epoch_latency_.observe(wall_s);
    }
    epochs_.push_back(std::move(decision));

    // No fleet is ever stranded here: with no live member every unresolved
    // unit is pending and nothing can serve it, so the re-plan above found
    // the deadline infeasible and shed them all.
    if (!work_unresolved()) {
      maybe_finish();
      return;
    }
    epoch_event_ = provider_.sim().schedule_in(
        options_.epoch, [this](sim::Simulation&) { on_epoch(); });
  }

  /// Sheds pending units, lowest value first (ties broken by shedding the
  /// higher index), until the remaining backlog fits the fleet we could
  /// actually field.
  void shed_until_feasible(EpochDecision& decision,
                           const model::Predictor& predictor,
                           Bytes fresh_capacity) {
    const Bytes serveable = fleet_serveable(predictor, fresh_capacity);
    while (pending_bytes().count() > serveable.count()) {
      // Lowest value first; at equal value shed the higher index (later
      // units are the marginal ones).
      Unit* victim = nullptr;
      for (auto& unit : units_) {
        if (resolved(*unit) || !unit->contenders.empty()) continue;
        if (victim == nullptr || unit->assignment.value < victim->assignment.value ||
            (unit->assignment.value == victim->assignment.value &&
             unit->index > victim->index)) {
          victim = unit.get();
        }
      }
      if (victim == nullptr) break;
      victim->shed = true;
      victim->error = "shed: deadline infeasible at full acquisition budget";
      decision.shed_units.push_back(victim->index);
      shed_units_.push_back(victim->index);
      bytes_shed_ += victim->remaining;
      ++units_shed_;
      m_shed_.add(1);
      if (obs::enabled()) {
        obs::trace().instant(obs::kPidExecutor, victim->tid(),
                             "controller", "unit-shed",
                             provider_.sim().now().value(),
                             {obs::arg("unit", victim->index),
                              obs::arg("value", victim->assignment.value),
                              obs::arg("bytes", victim->remaining.count())});
      }
    }
    maybe_finish();
  }

  // -- report ---------------------------------------------------------------

  [[nodiscard]] CampaignReport assemble() {
    CampaignReport report;
    report.execution.deadline = plan_.deadline;
    report.execution.outcomes.resize(units_.size());
    for (const auto& unit : units_) {
      InstanceOutcome& outcome = report.execution.outcomes[unit->index];
      outcome = unit->outcome("unit never completed");
      // A hedge's own attempt starts late, so a hedge-won unit's work time
      // is its wall time from the first attempt to the win.
      if (unit->speculative_won) {
        outcome.work_time = unit->finished_at - unit->first_work_begun;
      }
      // Campaign-clock deadline: the unit must be done by D after start.
      outcome.met_deadline =
          unit->done && unit->finished_at <= deadline_abs();
      if (!outcome.met_deadline) ++report.execution.missed;
      // The epoch chain reschedules while any unit is unresolved, and a
      // fleet-less epoch sheds what is left, so nothing is abandoned:
      // the report's `abandoned` stays 0.
      RESHAPE_REQUIRE(resolved(*unit), "every unit must end done or shed");
      report.execution.makespan =
          std::max(report.execution.makespan, outcome.work_time);
    }
    report.execution.failures = static_cast<std::size_t>(m_failures_.value());
    report.execution.relaunches = acquisitions_;
    report.execution.recovery_time = Seconds(m_recovery_time_.value());
    report.execution.instance_hours =
        provider_.billing().instance_hours(provider_.sim().now());
    report.execution.cost =
        provider_.billing().total_cost(provider_.sim().now());

    report.epochs = std::move(epochs_);
    report.replans = report.epochs.size();
    report.stragglers_flagged = stragglers_flagged_;
    report.hedges_launched = hedges_launched_;
    report.speculative_wins = speculative_wins_;
    report.speculative_losses = speculative_losses_;
    report.units_shed = units_shed_;
    report.bytes_shed = bytes_shed_;
    report.shed_units = shed_units_;
    std::sort(report.shed_units.begin(), report.shed_units.end());
    report.cross_az_moves = cross_az_moves_;
    report.acquisitions = acquisitions_;
    report.releases = releases_;
    report.boot_failures = boot_failures_;
    report.degraded = degraded_;
    return report;
  }

  cloud::CloudProvider& provider_;
  const ExecutionPlan& plan_;
  const ExecutionOptions& base_;
  const ElasticOptions& options_;
  StragglerDetector detector_;
  model::ThroughputBank bank_;
  /// The planning prior until the bank can refit: a pure rate model at
  /// the executor's nominal rate.
  const model::Predictor prior_predictor_{
      model::AffineFit{0.0, 1.0 / kNominalRate.bytes_per_second(), {}}};
  /// Backoff schedule for boot-failure retries.
  const RetryPolicy acquisition_retry_ = RetryPolicy::for_acquisition();
  Rng backoff_rng_;

  std::vector<std::unique_ptr<Unit>> units_;
  std::vector<std::unique_ptr<Member>> members_;
  std::unordered_map<cloud::InstanceId, std::size_t> by_id_;
  std::deque<std::size_t> pending_;
  std::vector<std::pair<cloud::AvailabilityZone, std::size_t>> zone_failures_;
  std::vector<cloud::AvailabilityZone> suspect_zones_;
  std::size_t zone_rr_ = 0;

  Seconds start_{0.0};
  sim::EventHandle epoch_event_{};
  std::uint64_t epoch_seq_ = 0;
  bool finishing_ = false;

  std::vector<EpochDecision> epochs_;
  std::size_t stragglers_flagged_ = 0;
  std::size_t hedges_launched_ = 0;
  std::size_t speculative_wins_ = 0;
  std::size_t speculative_losses_ = 0;
  std::size_t units_shed_ = 0;
  Bytes bytes_shed_{0};
  std::vector<std::size_t> shed_units_;
  std::size_t cross_az_moves_ = 0;
  std::size_t acquisitions_ = 0;
  std::size_t releases_ = 0;
  std::size_t boot_failures_ = 0;
  bool degraded_ = false;

  // Event-site tallies (the executor's local-registry pattern): merged
  // into the global registry only when recording is on.
  obs::MetricsRegistry metrics_;
  obs::Counter& m_replans_ = metrics_.counter("controller.replans");
  obs::Counter& m_flagged_ =
      metrics_.counter("controller.stragglers_flagged");
  obs::Counter& m_shed_ = metrics_.counter("controller.units_shed");
  obs::Counter& m_hedges_ = metrics_.counter("controller.hedges_launched");
  obs::Counter& m_acquisitions_ =
      metrics_.counter("controller.acquisitions");
  obs::Counter& m_cross_az_ = metrics_.counter("controller.cross_az_moves");
  obs::Counter& m_boot_failures_ =
      metrics_.counter("controller.boot_failures");
  obs::Counter& m_failures_ = metrics_.counter("controller.failures");
  obs::Counter& m_suspect_zones_ =
      metrics_.counter("controller.suspect_zones");
  obs::Gauge& m_recovery_time_ =
      metrics_.gauge("controller.recovery_time_s");
  obs::Histogram& m_epoch_latency_ = metrics_.histogram(
      "controller.epoch_replan_latency_s",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
};

}  // namespace

CampaignReport run_campaign(cloud::CloudProvider& provider,
                            const ExecutionPlan& plan,
                            const cloud::AppCostProfile& app,
                            const ExecutionOptions& base,
                            const ElasticOptions& options, Rng& noise) {
  RESHAPE_REQUIRE(!plan.assignments.empty(), "plan has no assignments");
  RESHAPE_REQUIRE(options.epoch.value() > 0.0, "epoch period must be > 0");
  ElasticController controller(provider, plan, app, base, options, noise);
  return controller.run();
}

}  // namespace reshape::provision
