#include "sim/simulation.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace reshape::sim {

void Simulation::reserve(std::size_t events) {
  while (chunks_.size() * kChunkSize < events) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
}

std::uint32_t Simulation::allocate_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).next_free;
    return slot;
  }
  // EventRef packs the slot into 24 bits of its ordering key.
  RESHAPE_REQUIRE(slot_count_ <= EventRef::kSlotMask, "event slab exhausted");
  if ((static_cast<std::size_t>(slot_count_) >> kChunkShift) ==
      chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Simulation::free_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.fn.reset();
  s.live = false;
  if (++s.generation == 0) s.generation = 1;  // never collide with invalid
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle Simulation::arm(std::uint32_t slot, Seconds when) {
  Slot& s = slot_ref(slot);
  // EventRef keeps seq in the 40 bits above the slot index.
  RESHAPE_REQUIRE(next_seq_ < (1ull << (64 - EventRef::kSlotBits)),
                  "event sequence space exhausted");
  s.seq = next_seq_++;
  s.live = true;
  ladder_.push(EventRef{when.value(), s.seq, slot});
  ++live_;
  return EventHandle{slot, s.generation};
}

bool Simulation::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  if (handle.slot >= slot_count_) return false;
  Slot& s = slot_ref(handle.slot);
  if (!s.live || s.generation != handle.generation) return false;
  // The queue reference goes stale (its seq no longer matches a live
  // slot) and is purged when it reaches the front — no cancelled-id set,
  // no unbounded lazy-deletion growth.
  free_slot(handle.slot);
  --live_;
  note_cancelled();
  return true;
}

const EventRef* Simulation::peek_live() {
  while (true) {
    const EventRef* top = ladder_.peek();
    if (top == nullptr) return nullptr;
    const Slot& s = slot_ref(top->slot());
    if (s.live && s.seq == top->seq()) return top;
    ladder_.pop_top();  // stale: cancelled, or the slot moved on
  }
}

void Simulation::fire(EventRef top) {
  ladder_.pop_top();
  Slot& s = slot_ref(top.slot());
  // Start pulling the next event's slot toward the cache while this
  // event's callback runs: at million-event populations the slot was
  // written long ago and the load would otherwise stall validation.
  if (const EventRef* next = ladder_.peek_if_ready()) {
    __builtin_prefetch(&slot_ref(next->slot()), 0, 1);
  }
  // Invalidate the slot before invoking: cancelling the firing event's
  // own handle reports false and pending() excludes it.  The chunked slab
  // keeps `s` stable while the callback schedules new events, so the
  // callable runs in place — no per-fire move.  The slot joins the free
  // list only afterwards, so it cannot be re-armed mid-invoke.
  s.live = false;
  if (++s.generation == 0) s.generation = 1;
  --live_;
  now_ = Seconds(top.when);
  note_fired();
  s.fn(*this);
  s.fn.reset();
  s.next_free = free_head_;
  free_head_ = top.slot();
}

std::optional<Seconds> Simulation::next_event_time() {
  const EventRef* top = peek_live();
  if (top == nullptr) return std::nullopt;
  return Seconds(top->when);
}

bool Simulation::step() {
  const EventRef* top = peek_live();
  if (top == nullptr) return false;
  fire(*top);
  return true;
}

std::size_t Simulation::run() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulation::run_until(Seconds horizon) {
  std::size_t fired = 0;
  while (true) {
    const EventRef* top = peek_live();
    if (top == nullptr || Seconds(top->when) > horizon) break;
    fire(*top);
    ++fired;
  }
  if (now_ < horizon) now_ = horizon;
  return fired;
}

void Simulation::note_fired() {
  if (obs::enabled()) {
    if (fired_counter_ == nullptr) {
      fired_counter_ = &obs::metrics().counter("sim.events_fired");
      depth_gauge_ = &obs::metrics().gauge("sim.queue_depth");
    }
    fired_counter_->add(1);
    depth_gauge_->set(static_cast<double>(live_));
  }
}

void Simulation::note_cancelled() {
  if (obs::enabled()) {
    if (cancelled_counter_ == nullptr) {
      cancelled_counter_ = &obs::metrics().counter("sim.events_cancelled");
      depth_gauge_ = &obs::metrics().gauge("sim.queue_depth");
    }
    cancelled_counter_->add(1);
    depth_gauge_->set(static_cast<double>(live_));
  }
}

}  // namespace reshape::sim
