// The long-running, multi-tenant planning server.
//
// Request life cycle:
//
//   submit() ── cache hit? ──> fulfilled inline on the caller's thread
//       │                      (serve.cache_hit: no queue, no worker)
//       └─ admission queue (bounded; reject-with-retry-after under
//          overload)
//             └─ dispatcher thread: forms same-model-key micro-batches
//                (serve.batch), bounded window
//                   └─ plan ThreadPool: one model-store snapshot and one
//                      planner per batch; per-request plan + cache fill
//                      (serve.plan), promise fulfilled
//
// Plans served by the server are bit-identical to one-shot
// provision::plan() calls with the same predictor, corpus and options:
// the worker calls exactly that function against the published model
// snapshot, and the cache stores the result by value.  What the service
// adds is amortization — shared fits (one tenant's probes reprice
// everyone's plans), batch-shared snapshot resolution, and plan reuse —
// plus graceful overload behavior.
//
// Observability: when recording is enabled the server threads per-request
// wall-clock spans through the global recorder (cat "serve": queue /
// batch / plan / cache_hit) and counters/histograms through the metrics
// registry (serve.requests, serve.cache_hits, serve.batches,
// serve.rejected, serve.planned, serve.failed,
// serve.batch_size, serve.plan_latency_us, serve.queue_depth,
// serve.pool.queue_depth).  All of it dead-codes under -DRESHAPE_OBS=OFF;
// the ServerStats counters below are always live and cost one relaxed
// atomic each.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "model/predictor.hpp"
#include "serve/batcher.hpp"
#include "serve/model_store.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request.hpp"

namespace reshape::serve {

struct ServerConfig {
  /// Plan-worker threads (the batcher dispatches onto this pool).
  std::size_t workers = 4;
  /// Admission queue bound; beyond it newcomers are rejected with a
  /// retry-after hint.
  std::size_t queue_capacity = 1024;
  /// Micro-batch limits: at most `max_batch` same-key requests per
  /// dispatch, lingering up to `batch_window` for the batch to fill
  /// (0 = dispatch whatever is queued, never wait).
  std::size_t max_batch = 16;
  Seconds batch_window{0.0};
  /// Plan-result caching (epoch-validated).  The model store and the plan
  /// cache keep their constructors' default shard counts and capacity.
  bool cache_plans = true;
};

/// Monotonic counters, readable at any time (relaxed; exact once the
/// futures being counted have resolved).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t planned = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t ingests = 0;
};

class PlanServer {
 public:
  explicit PlanServer(ServerConfig config = {});
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] ShardedModelStore& models() { return store_; }
  [[nodiscard]] const ShardedModelStore& models() const { return store_; }
  [[nodiscard]] const PlanCache& cache() const { return cache_; }

  /// Installs the prior fit for (app, shape) — the probe-run bootstrap a
  /// tenant (or operator) performs once per workload family.
  void seed_model(std::string_view app, std::string_view shape,
                  const model::Predictor& prior);

  /// Banks one probe/attempt observation against (app, shape), refits,
  /// and bumps the model epoch — invalidating exactly that key's cached
  /// plans.  Returns the new epoch.
  std::uint64_t ingest(std::string_view app, std::string_view shape,
                       Bytes volume, Seconds elapsed);

  /// Submits a plan request.  Cache hits resolve the future before
  /// submit() returns; misses go through admission, batching and the
  /// worker pool.  The future always resolves (kOk/kRejected/kShed/
  /// kFailed) — the server never drops a promise.
  [[nodiscard]] std::future<PlanResponse> submit(PlanRequest request);

  /// submit() + get(): the drop-in replacement for a one-shot library
  /// call.
  [[nodiscard]] PlanResponse plan_sync(PlanRequest request);

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

  /// Advisory backoff under rejection: the estimated time for the
  /// current queue to drain through the workers.
  [[nodiscard]] Seconds retry_after_hint() const;

 private:
  void dispatcher_loop();
  void process_batch(std::vector<Pending> batch);
  void fail(Pending& pending, PlanStatus status, std::string error,
            Seconds retry_after = Seconds(0.0));
  /// Resolves the model key for a request (deriving the shape from the
  /// corpus when unset) into `storage`, returning borrowed views.
  [[nodiscard]] static ModelKeyView resolve_key(const PlanRequest& request,
                                                std::string& shape_storage);
  void note_queue_depths();

  ServerConfig config_;
  ShardedModelStore store_;
  PlanCache cache_;
  AdmissionQueue queue_;

  std::atomic<std::uint64_t> seq_{0};
  /// EWMA of recent per-plan seconds; seeds the retry-after estimate.
  std::atomic<double> ewma_plan_s_{1e-3};

  struct Counters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> batched_requests{0};
    std::atomic<std::uint64_t> planned{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> ingests{0};
  };
  Counters counters_;

  std::atomic<bool> stopping_{false};
  /// Declared after the state it uses; destroyed (drained) first.
  std::unique_ptr<ThreadPool> pool_;
  std::thread dispatcher_;
};

}  // namespace reshape::serve
