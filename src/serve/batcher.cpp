#include "serve/batcher.hpp"

#include "common/error.hpp"

namespace reshape::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  RESHAPE_REQUIRE(capacity > 0, "admission queue needs capacity");
}

std::optional<Pending> AdmissionQueue::admit(Pending pending) {
  {
    const std::lock_guard lock(mu_);
    if (stopped_ || queue_.size() >= capacity_) return pending;
    queue_.push_back(std::move(pending));
    high_water_ = std::max(high_water_,
                           static_cast<std::uint64_t>(queue_.size()));
  }
  arrival_.notify_one();
  return std::nullopt;
}

void AdmissionQueue::gather_locked(std::vector<Pending>& batch,
                                   std::size_t max_batch) {
  const ModelKeyView key = batch.front().key.view();
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < max_batch;) {
    if (it->key.view() == key) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<Pending> AdmissionQueue::next_batch(std::size_t max_batch,
                                                Seconds window) {
  RESHAPE_REQUIRE(max_batch > 0, "batch size must be positive");
  std::vector<Pending> batch;
  std::unique_lock lock(mu_);
  arrival_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
  if (queue_.empty()) return batch;  // stopped and drained

  batch.reserve(max_batch);
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  gather_locked(batch, max_batch);

  if (window.value() > 0.0 && batch.size() < max_batch && !stopped_) {
    // Linger for same-key arrivals, bounded by the window.  Other keys
    // accumulate behind us — the window is the knob that caps how much
    // p50 a tenant pays for batching, so it should be microseconds to
    // low milliseconds.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(window.value()));
    while (batch.size() < max_batch && !stopped_) {
      if (arrival_.wait_until(lock, deadline) == std::cv_status::timeout) {
        gather_locked(batch, max_batch);
        break;
      }
      gather_locked(batch, max_batch);
    }
  }
  return batch;
}

void AdmissionQueue::stop() {
  {
    const std::lock_guard lock(mu_);
    stopped_ = true;
  }
  arrival_.notify_all();
}

std::vector<Pending> AdmissionQueue::drain() {
  const std::lock_guard lock(mu_);
  std::vector<Pending> remaining;
  remaining.reserve(queue_.size());
  while (!queue_.empty()) {
    remaining.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return remaining;
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard lock(mu_);
  return queue_.size();
}

std::uint64_t AdmissionQueue::high_water() const {
  const std::lock_guard lock(mu_);
  return high_water_;
}

}  // namespace reshape::serve
