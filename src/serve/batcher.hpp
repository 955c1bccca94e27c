// Admission control and micro-batching for the planning server.
//
// The AdmissionQueue is the server's only unbounded-load surface, so it is
// bounded: when `capacity` requests are already waiting, the new request
// is handed back for the server to reject with a retry-after hint, and
// the queue is left as it was.  Overload degrades one request at a time
// instead of collapsing the queue into multi-second latency for everyone.
//
// The dispatcher side forms micro-batches: next_batch() pops the oldest
// request and gathers every waiting request that shares its model key, up
// to `max_batch`.  If the batch is short and `window` is positive, the
// dispatcher lingers that long for same-key arrivals before dispatching —
// a bounded wait that trades a sliver of p50 for one model-store lookup
// and one planner construction per batch instead of per request.
// Requests with other keys are left queued in arrival order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "serve/model_key.hpp"
#include "serve/request.hpp"

namespace reshape::serve {

/// A request in flight through the server, with its resolved model key,
/// cache fingerprint and the promise the tenant is waiting on.
struct Pending {
  PlanRequest request;
  ModelKey key;
  std::uint64_t fingerprint = 0;
  std::uint64_t seq = 0;
  std::chrono::steady_clock::time_point enqueued{};
  std::promise<PlanResponse> promise;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Queues `pending`, or hands it back when the queue is full or stopped
  /// (the caller must fail it: promises are never dropped silently).
  /// Never blocks.
  [[nodiscard]] std::optional<Pending> admit(Pending pending);

  /// Blocks until a request is available (or the queue is stopped), then
  /// returns the oldest request plus up to `max_batch - 1` same-key
  /// followers, waiting at most `window` for the batch to fill.  An empty
  /// result means the queue was stopped.
  [[nodiscard]] std::vector<Pending> next_batch(std::size_t max_batch,
                                                Seconds window);

  /// Wakes the dispatcher permanently; subsequent next_batch() calls
  /// return empty.
  void stop();

  /// Removes and returns everything still queued (shutdown path).
  [[nodiscard]] std::vector<Pending> drain();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::uint64_t high_water() const;

 private:
  /// Moves every queued request matching `key` into `batch` (up to
  /// `max_batch`), preserving arrival order.  Requires `mu_` held.
  void gather_locked(std::vector<Pending>& batch, std::size_t max_batch);

  mutable std::mutex mu_;
  std::condition_variable arrival_;
  std::deque<Pending> queue_;
  std::size_t capacity_;
  bool stopped_ = false;
  std::uint64_t high_water_ = 0;
};

}  // namespace reshape::serve
