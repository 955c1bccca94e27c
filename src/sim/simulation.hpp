// Discrete-event simulation kernel.
//
// The cloud substrate schedules instance boots, task completions, billing
// ticks and spot-price moves as events on this kernel.  Events at equal
// timestamps fire in scheduling order (a stable tiebreak), which keeps runs
// bit-for-bit reproducible.
//
// Engineered for million-event campaigns (see DESIGN.md "Event engine"):
//   * events live in a generation-tagged slab pool — EventHandle is
//     {slot, generation}, cancel() is an O(1) slot invalidation, and small
//     callbacks are stored inline (EventFn's small-buffer storage), so the
//     hot schedule path performs no heap allocation;
//   * the ready structure is a two-level calendar/ladder queue (near-future
//     buckets + far-future overflow), amortized O(1) per schedule/fire
//     instead of the binary heap's O(log n).
//
// The retained seed engine (sim/simulation_reference.hpp) is the one
// ordering oracle the differential replay suite byte-diffs this engine
// against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/event_fn.hpp"
#include "sim/ladder_queue.hpp"

namespace reshape::obs {
class Counter;
class Gauge;
}  // namespace reshape::obs

namespace reshape::sim {

/// Identifies a scheduled event so it can be cancelled.  The generation
/// tag makes handles single-use: once the event fires or is cancelled the
/// slab slot's generation moves on, and the stale handle is rejected even
/// if the slot has been reused by a new event.
struct EventHandle {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const { return generation != 0; }
};

class Simulation {
 public:
  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  using Callback = std::function<void(Simulation&)>;

  /// Current simulated time.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `cb` at absolute simulated time `when` (>= now).  Accepts
  /// any callable taking (Simulation&); callables up to
  /// EventFn::kInlineBytes are stored without allocating.
  template <typename F>
  EventHandle schedule_at(Seconds when, F&& cb) {
    RESHAPE_REQUIRE(when >= now_, "cannot schedule an event in the past");
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      RESHAPE_REQUIRE(static_cast<bool>(cb), "event callback must be callable");
    }
    const std::uint32_t slot = allocate_slot();
    slot_ref(slot).fn.emplace(std::forward<F>(cb));
    return arm(slot, when);
  }

  /// Schedules `cb` after a relative delay (>= 0).
  template <typename F>
  EventHandle schedule_in(Seconds delay, F&& cb) {
    RESHAPE_REQUIRE(delay.value() >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancels a pending event in O(1); returns false if the handle is
  /// invalid, already fired, or previously cancelled.
  bool cancel(EventHandle handle);

  /// Number of events scheduled but not yet fired or cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Timestamp of the next live event, if any (does not advance time).
  [[nodiscard]] std::optional<Seconds> next_event_time();

  /// Runs events until the queue drains.  Returns the number fired.
  std::size_t run();

  /// Runs events with time <= horizon; the clock then rests at `horizon`
  /// if it had not already passed it.  Returns the number fired.
  std::size_t run_until(Seconds horizon);

  /// Fires at most one event.  Returns false if the queue was empty.
  bool step();

  /// Pre-sizes the slab for an expected number of concurrently pending
  /// events (optional; the slab grows on demand).
  void reserve(std::size_t events);

 private:
  /// One slab slot.  `seq` doubles as the ref-validation token: a queue
  /// reference is live iff the slot is live and the seqs agree (seq is
  /// unique per scheduled event, so reused slots reject stale refs).
  // Hot metadata first: ref validation, cancel, and the free list touch
  // only the leading fields — one cache line — without pulling in the
  // 72-byte callable storage behind them.
  struct Slot {
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    bool live = false;
    std::uint32_t next_free = kNoFree;
    EventFn fn;
  };
  static constexpr std::uint32_t kNoFree = 0xffffffffu;
  // Slots live in fixed-size chunks, so their addresses are stable: a
  // firing callback can run in place inside its slot while scheduling new
  // events (which may grow the slab) — no per-fire callable move.
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  [[nodiscard]] Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  [[nodiscard]] std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);
  /// Enqueues the armed slot on the ladder.
  EventHandle arm(std::uint32_t slot, Seconds when);

  /// The shared peek-next-live helper: purges stale references (cancelled
  /// or superseded slots) off the top of the ready structure and returns
  /// the next live one, or nullptr when drained.  step() and run_until()
  /// both go through here, so the skip logic exists once.
  const EventRef* peek_live();
  /// Pops the given live ref and invokes its callback (clock := when).
  void fire(EventRef top);

  void note_fired();
  void note_cancelled();

  LadderQueue ladder_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out so far
  std::uint32_t free_head_ = kNoFree;
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;

  // Cached obs instruments (resolved on first use while recording is on;
  // compiled out entirely under -DRESHAPE_OBS=OFF).
  obs::Counter* fired_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace reshape::sim
