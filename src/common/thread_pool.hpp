// A small fixed-size thread pool.
//
// Used by the MapReduce local runner and the application profiler to run
// real text-processing work in parallel.  Follows the Core Guidelines
// concurrency rules: RAII lifetime (join in destructor), no detached
// threads, condition-variable waits guarded by the same mutex as the state
// they observe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace reshape::obs {
class Counter;
class Gauge;
}  // namespace reshape::obs

namespace reshape {

class ThreadPool {
 public:
  /// Starts `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker — the saturation
  /// signal the planning server's bench and doctor read (a persistently
  /// non-zero depth means submissions outpace the workers).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Enqueues a task and returns a future for its result.  Exceptions
  /// thrown by the task propagate through the future.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      const std::lock_guard lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
      note_enqueued_locked(1);
    }
    wake_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  /// Observability taps, called with `mutex_` held.  One relaxed load
  /// when recording is off; the instrument handles are resolved lazily on
  /// first use and cached for the pool's lifetime.
  void note_enqueued_locked(std::size_t n);
  void note_dequeued_locked();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;  // const queue_depth() locks it
  std::condition_variable wake_;
  bool stopping_ = false;

  // Metrics (guarded by mutex_; null until recording first observed on).
  obs::Counter* task_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  std::size_t queued_ = 0;
};

}  // namespace reshape
