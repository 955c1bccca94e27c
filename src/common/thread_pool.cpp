#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape {

namespace {

/// Synchronises one parallel_for batch: a countdown of unfinished tasks
/// plus the first captured exception, all guarded by one mutex.
///
/// Waiting for the *whole* batch before rethrowing is load-bearing: the
/// queued tasks reference the caller's `fn` (captured by reference), so
/// returning while any are still queued or running would leave workers
/// touching a destroyed callable.
///
/// A deliberate non-use of futures: carrying exceptions through
/// std::packaged_task shared state lets a worker drop the last reference
/// to the stored exception after the caller has already read it, and that
/// final release happens inside libstdc++'s (uninstrumented) refcount —
/// which TSan reports as a racing free.  Here the first exception is
/// handed over under `m`, every worker-side reference is released before
/// the caller can observe completion, and the final release runs on the
/// calling thread.
struct Batch {
  std::mutex m;
  std::condition_variable all_done;
  std::size_t remaining;
  std::size_t first_index = 0;
  std::exception_ptr first;

  explicit Batch(std::size_t tasks) : remaining(tasks) {}

  /// Worker side: called exactly once per task, after the task body ran.
  /// The exception of the earliest-submitted failing task wins, matching
  /// the submission-order semantics a future-drain loop would give.
  void finish(std::size_t index, std::exception_ptr err) {
    const std::lock_guard lock(m);
    if (err && (!first || index < first_index)) {
      first = std::move(err);  // displaced exception freed under the lock
      first_index = index;
    }
    if (--remaining == 0) all_done.notify_one();
  }

  /// Caller side: blocks until every task finished, then rethrows.
  void wait_and_rethrow() {
    {
      std::unique_lock lock(m);
      all_done.wait(lock, [this] { return remaining == 0; });
    }
    if (first) std::rethrow_exception(first);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::queue_depth() const {
  const std::lock_guard lock(mutex_);
  return queue_.size();
}

void ThreadPool::note_enqueued_locked(std::size_t n) {
  if (!obs::enabled()) return;
  if (task_counter_ == nullptr) {
    task_counter_ = &obs::metrics().counter("pool.tasks");
    depth_gauge_ = &obs::metrics().gauge("pool.queue_depth");
  }
  task_counter_->add(n);
  queued_ += n;
  depth_gauge_->set(static_cast<double>(queued_));
}

void ThreadPool::note_dequeued_locked() {
  if (!obs::enabled() || depth_gauge_ == nullptr) return;
  if (queued_ > 0) --queued_;  // recording may have been enabled mid-stream
  depth_gauge_->set(static_cast<double>(queued_));
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // only reachable when stopping_
      task = std::move(queue_.front());
      queue_.pop_front();
      note_dequeued_locked();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  const obs::WallSpan span("pool", "parallel_for");
  Batch batch(n);
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      queue_.emplace_back([&batch, &fn, i] {
        std::exception_ptr err;
        try {
          fn(i);
        } catch (...) {
          err = std::current_exception();
        }
        batch.finish(i, std::move(err));
      });
    }
    note_enqueued_locked(n);
  }
  wake_.notify_all();
  batch.wait_and_rethrow();
}

}  // namespace reshape
