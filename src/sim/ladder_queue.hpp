// Multi-rung calendar/ladder priority structure for event references.
//
// Far future: an unsorted overflow vector ("top").  Near future: a stack
// of rungs, each a wheel of kBuckets buckets; rung i+1 subdivides one
// bucket of rung i into kBuckets narrower buckets.  When the rungs drain,
// the overflow is re-spanned into a fresh rung 0 covering its whole time
// range (one O(n) scan — refs never return to the overflow).  When the
// active bottom bucket turns out dense (> kSpawnThreshold refs), it is
// re-spanned into a child rung instead of being consumed, so bucket
// populations adapt to any event-time distribution — including the
// heavily skewed ones where a single-level calendar degenerates into one
// big bucket.  Only the bottom bucket is ever heap-ordered on (when,
// seq), which preserves the stable FIFO tiebreak among equal timestamps
// exactly while keeping per-event heap work bounded by the spawn
// threshold, not the queue population: push and pop are amortized O(1).
//
// The queue orders plain references {when, seq, slot}; liveness of the
// referenced slab slot is the Simulation's concern (cancelled events leave
// a stale ref behind, purged when it surfaces).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace reshape::sim {

/// Ordering key + slab location of one scheduled event, packed to 16
/// bytes: seq (stable FIFO tiebreak among equal timestamps) occupies the
/// high bits of `key`, the slab slot index the low kSlotBits, so one u64
/// compare resolves the tiebreak and bucket moves copy a third less.
/// Bounds (enforced where events are armed): < 2^24 concurrently pending
/// events, < 2^40 events per run.
struct EventRef {
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  double when = 0.0;
  std::uint64_t key = 0;  // (seq << kSlotBits) | slot

  EventRef() = default;
  EventRef(double w, std::uint64_t seq, std::uint32_t slot)
      : when(w), key((seq << kSlotBits) | slot) {}

  [[nodiscard]] std::uint64_t seq() const { return key >> kSlotBits; }
  [[nodiscard]] std::uint32_t slot() const {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }
};

/// "a fires later than b" — the order of the ladder's heap-mode buckets.
/// seq sits above slot in `key`, so the key compare orders equal
/// timestamps by scheduling order exactly.
struct EventRefLater {
  bool operator()(const EventRef& a, const EventRef& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.key > b.key;
  }
};

class LadderQueue {
 public:
  LadderQueue();

  /// Appends a reference.  `r.when` must be >= the last popped time (the
  /// simulation clock guarantees this).  Defined inline: push/peek/pop are
  /// the engine's innermost loop and inline into the Simulation hot path.
  void push(const EventRef& r) {
    ++count_;
    // Deepest rung first: the innermost rung covers the earliest
    // unconsumed span, so the first rung whose range contains `when` is
    // the tightest.
    for (std::size_t i = depth_; i-- > 0;) {
      Rung& g = rungs_[i];
      if (r.when >= g.end) continue;
      std::size_t idx = bucket_index(g, r.when);
      // A ref earlier than the active bucket (when >= now still holds) is
      // parked in the active bucket; the bottom heap orders it exactly.
      if (idx < g.cur) idx = g.cur;
      std::vector<EventRef>& bucket = g.buckets[idx];
      if (i + 1 == depth_ && idx == g.cur && bottom_ready_) {
        // The active bucket is already ordered; keep it so.  The key
        // compare is a strict total order, so the sorted insert position
        // is unique — FIFO stability needs no extra care.
        if (bottom_is_heap_) {
          bucket.push_back(r);
          std::push_heap(bucket.begin(), bucket.end(), EventRefLater{});
        } else {
          bucket.insert(
              std::upper_bound(bucket.begin(), bucket.end(), r,
                               EventRefLater{}),
              r);
        }
      } else {
        bucket.push_back(r);
      }
      ++g.population;
      return;
    }
    overflow_.push_back(r);
  }

  /// The earliest reference by (when, seq), or nullptr when empty.  The
  /// pointer is invalidated by any push/pop.
  [[nodiscard]] const EventRef* peek() {
    // Fast path: the active bottom bucket is already ordered and still
    // holds refs — two loads instead of the rung walk.  (The cached
    // vector object's address is stable: reallocating rungs_ moves Rung
    // structs, not the heap array their `buckets` elements live in.)
    if (bottom_ready_ && !bottom_bucket_->empty()) {
      return bottom_is_heap_ ? &bottom_bucket_->front()
                             : &bottom_bucket_->back();
    }
    while (true) {
      if (depth_ == 0) {
        if (overflow_.empty()) return nullptr;
        respan_from_overflow();
      }
      Rung& g = rungs_[depth_ - 1];
      if (g.population == 0) {
        g.cur = kBuckets;  // every bucket is empty; drop the rung at once
      }
      while (g.cur < kBuckets && g.buckets[g.cur].empty()) {
        ++g.cur;
        bottom_ready_ = false;
      }
      if (g.cur >= kBuckets) {
        // Rung drained.  The parent's spawned bucket is re-examined next
        // iteration: refs that arrived for that span while this rung was
        // live sit there.
        --depth_;
        bottom_ready_ = false;
        continue;
      }
      std::vector<EventRef>& bucket = g.buckets[g.cur];
      if (!bottom_ready_) {
        if (bucket.size() > kSpawnThreshold && depth_ < kMaxDepth &&
            g.width > static_cast<double>(kBuckets) * kMinWidth) {
          spawn_rung();
          continue;
        }
        // Small buckets (the usual case — the spawn threshold caps them)
        // sort descending once, so every pop is a plain pop_back and every
        // arrival a binary insert.  Spawn-blocked giants keep a heap:
        // O(log n) arrivals instead of O(n) front inserts.
        if (bucket.size() <= kSortMax) {
          std::sort(bucket.begin(), bucket.end(), EventRefLater{});
          bottom_is_heap_ = false;
        } else {
          std::make_heap(bucket.begin(), bucket.end(), EventRefLater{});
          bottom_is_heap_ = true;
        }
        bottom_ready_ = true;
        bottom_bucket_ = &bucket;
      }
      return bottom_is_heap_ ? &bucket.front() : &bucket.back();
    }
  }

  /// Removes the reference `peek()` returned.  Requires a preceding peek
  /// with a non-null result and no intervening push.
  void pop_top() {
    std::vector<EventRef>& bucket = *bottom_bucket_;
    if (bottom_is_heap_) {
      std::pop_heap(bucket.begin(), bucket.end(), EventRefLater{});
    }
    bucket.pop_back();
    --rungs_[depth_ - 1].population;
    --count_;
  }

  /// The fast-path subset of peek(): the next reference if the active
  /// bucket is still ordered and non-empty, nullptr otherwise (no rung
  /// maintenance).  Cheap enough to call speculatively — the engine uses
  /// it to prefetch the next event's slab slot.
  [[nodiscard]] const EventRef* peek_if_ready() const {
    if (bottom_ready_ && !bottom_bucket_->empty()) {
      return bottom_is_heap_ ? &bottom_bucket_->front()
                             : &bottom_bucket_->back();
    }
    return nullptr;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  static constexpr std::size_t kBuckets = 512;
  /// A bottom bucket denser than this re-spans into a child rung (if the
  /// width still allows) instead of being heapified.
  static constexpr std::size_t kSpawnThreshold = 24;
  /// A prepared bottom bucket at most this large is sorted (pop_back
  /// serves it); anything larger is heap-ordered instead.
  static constexpr std::size_t kSortMax = 1024;
  /// Rung-stack depth cap; a bucket at the cap is consumed as a heap.
  static constexpr std::size_t kMaxDepth = 8;
  static constexpr double kMinWidth = 1e-9;

  struct Rung {
    std::vector<std::vector<EventRef>> buckets;
    double start = 0.0;
    double width = 1.0;
    double inv_width = 1.0;  // cached reciprocal: no divide per push
    double end = 0.0;        // start + kBuckets * width, cached
    std::size_t cur = 0;         // active (earliest unconsumed) bucket
    std::size_t population = 0;  // refs currently stored in this rung
  };

  [[nodiscard]] static std::size_t bucket_index(const Rung& g, double when) {
    const double offset = (when - g.start) * g.inv_width;
    const std::size_t idx =
        offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
    return idx < kBuckets - 1 ? idx : kBuckets - 1;
  }

  /// Moves the whole overflow into a fresh rung 0 spanning its time range.
  void respan_from_overflow();
  /// Subdivides the bottom rung's active bucket into a new, narrower rung.
  void spawn_rung();

  std::vector<Rung> rungs_;  // persistent pool; rungs_[0..depth_) are live
  std::size_t depth_ = 0;
  bool bottom_ready_ = false;    // active bucket is ordered (sorted or heap)
  bool bottom_is_heap_ = false;  // which ordering the active bucket uses
  // The ordered active bucket; valid exactly while bottom_ready_.
  std::vector<EventRef>* bottom_bucket_ = nullptr;
  std::vector<EventRef> overflow_;
  std::size_t count_ = 0;
};

}  // namespace reshape::sim
