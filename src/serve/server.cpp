#include "serve/server.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::serve {

std::string_view to_string(PlanStatus status) {
  switch (status) {
    case PlanStatus::kOk: return "ok";
    case PlanStatus::kRejected: return "rejected";
    case PlanStatus::kShed: return "shed";
    case PlanStatus::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// Lazily-resolved global metric handles (the ThreadPool pattern: resolve
/// once, record with relaxed atomics forever after).  Shared by every
/// PlanServer in the process — the names are global anyway.
struct ObsHandles {
  obs::Counter* requests = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* batched_requests = nullptr;
  obs::Counter* planned = nullptr;
  obs::Counter* failed = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* ingests = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* pool_queue_depth = nullptr;
  obs::Histogram* batch_size = nullptr;
  obs::Histogram* plan_latency_us = nullptr;
};

ObsHandles* obs_handles() {
  static ObsHandles handles = [] {
    ObsHandles h;
    auto& m = obs::metrics();
    h.requests = &m.counter("serve.requests");
    h.cache_hits = &m.counter("serve.cache_hits");
    h.batches = &m.counter("serve.batches");
    h.batched_requests = &m.counter("serve.batched_requests");
    h.planned = &m.counter("serve.planned");
    h.failed = &m.counter("serve.failed");
    h.rejected = &m.counter("serve.rejected");
    h.ingests = &m.counter("serve.ingests");
    h.queue_depth = &m.gauge("serve.queue_depth");
    h.pool_queue_depth = &m.gauge("serve.pool.queue_depth");
    h.batch_size = &m.histogram("serve.batch_size",
                                {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    h.plan_latency_us =
        &m.histogram("serve.plan_latency_us",
                     {10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                      5000.0, 10000.0, 50000.0, 100000.0});
    return h;
  }();
  return &handles;
}

/// Records a wall span through the global recorder iff recording and wall
/// capture are both on (server spans are genuinely wall-clock).
void wall_span(std::string_view name,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::vector<obs::TraceArg> args = {}) {
  if (!obs::enabled()) return;
  obs::trace().wall_complete("serve", name, start, end, std::move(args));
}

}  // namespace

PlanServer::PlanServer(ServerConfig config)
    : config_(config),
      queue_(config.queue_capacity),
      pool_(std::make_unique<ThreadPool>(std::max<std::size_t>(
          1, config.workers))),
      dispatcher_([this] { dispatcher_loop(); }) {}

PlanServer::~PlanServer() {
  stopping_.store(true, std::memory_order_relaxed);
  queue_.stop();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher drains the queue before exiting, but a request admitted
  // in the stop race could still be waiting — never strand a promise.
  for (Pending& pending : queue_.drain()) {
    fail(pending, PlanStatus::kShed, "server shutting down");
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
  }
  pool_.reset();  // runs every already-dispatched batch to completion
}

void PlanServer::seed_model(std::string_view app, std::string_view shape,
                            const model::Predictor& prior) {
  store_.seed(ModelKeyView{app, shape}, prior);
}

std::uint64_t PlanServer::ingest(std::string_view app, std::string_view shape,
                                 Bytes volume, Seconds elapsed) {
  counters_.ingests.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_handles()->ingests->add();
  return store_.observe(ModelKeyView{app, shape}, volume, elapsed);
}

ModelKeyView PlanServer::resolve_key(const PlanRequest& request,
                                     std::string& shape_storage) {
  if (request.shape.empty()) {
    shape_storage = corpus_shape_signature(*request.corpus);
    return ModelKeyView{request.app, shape_storage};
  }
  return ModelKeyView{request.app, request.shape};
}

std::future<PlanResponse> PlanServer::submit(PlanRequest request) {
  RESHAPE_REQUIRE(request.corpus != nullptr, "plan request needs a corpus");
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_handles()->requests->add();
  const auto t0 = std::chrono::steady_clock::now();

  Pending pending;
  pending.request = std::move(request);
  std::string shape_storage;
  const ModelKeyView key = resolve_key(pending.request, shape_storage);
  std::future<PlanResponse> future = pending.promise.get_future();

  // Cache fast path: resolved inline on the caller's thread — a hit
  // never touches the queue, the dispatcher or a worker.
  const std::uint64_t epoch = store_.epoch(key);
  std::uint64_t fingerprint = 0;
  if (config_.cache_plans && epoch != 0) {
    fingerprint = request_fingerprint(*pending.request.corpus,
                                      pending.request.options,
                                      pending.request.corpus_tag);
    if (const auto hit = cache_.find(key, fingerprint, epoch)) {
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) obs_handles()->cache_hits->add();
      wall_span("cache_hit", t0, std::chrono::steady_clock::now(),
                {obs::arg("app", pending.request.app)});
      PlanResponse response;
      response.status = PlanStatus::kOk;
      response.cache_hit = true;
      response.plan = hit->plan;
      response.model_epoch = hit->model_epoch;
      pending.promise.set_value(std::move(response));
      return future;
    }
  }

  pending.key = ModelKey(key);
  pending.fingerprint = fingerprint;
  pending.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  pending.enqueued = t0;

  if (std::optional<Pending> refused = queue_.admit(std::move(pending))) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs_handles()->rejected->add();
    fail(*refused, PlanStatus::kRejected, "admission queue full",
         retry_after_hint());
  }
  return future;
}

PlanResponse PlanServer::plan_sync(PlanRequest request) {
  return submit(std::move(request)).get();
}

ServerStats PlanServer::stats() const {
  ServerStats s;
  s.requests = counters_.requests.load(std::memory_order_relaxed);
  s.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  s.batches = counters_.batches.load(std::memory_order_relaxed);
  s.batched_requests =
      counters_.batched_requests.load(std::memory_order_relaxed);
  s.planned = counters_.planned.load(std::memory_order_relaxed);
  s.failed = counters_.failed.load(std::memory_order_relaxed);
  s.rejected = counters_.rejected.load(std::memory_order_relaxed);
  s.shed = counters_.shed.load(std::memory_order_relaxed);
  s.ingests = counters_.ingests.load(std::memory_order_relaxed);
  return s;
}

Seconds PlanServer::retry_after_hint() const {
  const double per_plan = ewma_plan_s_.load(std::memory_order_relaxed);
  const auto depth = static_cast<double>(queue_.depth());
  const auto workers = static_cast<double>(pool_->size());
  return Seconds(std::max(1e-3, (depth + 1.0) * per_plan / workers));
}

void PlanServer::fail(Pending& pending, PlanStatus status, std::string error,
                      Seconds retry_after) {
  PlanResponse response;
  response.status = status;
  response.retry_after = retry_after;
  response.error = std::move(error);
  pending.promise.set_value(std::move(response));
}

void PlanServer::note_queue_depths() {
  if (!obs::enabled()) return;
  ObsHandles* h = obs_handles();
  h->queue_depth->set(static_cast<double>(queue_.depth()));
  h->pool_queue_depth->set(static_cast<double>(pool_->queue_depth()));
}

void PlanServer::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch =
        queue_.next_batch(config_.max_batch, config_.batch_window);
    if (batch.empty()) return;  // stopped and drained
    counters_.batches.fetch_add(1, std::memory_order_relaxed);
    counters_.batched_requests.fetch_add(batch.size(),
                                         std::memory_order_relaxed);
    if (obs::enabled()) {
      ObsHandles* h = obs_handles();
      h->batches->add();
      h->batched_requests->add(batch.size());
      h->batch_size->observe(static_cast<double>(batch.size()));
    }
    note_queue_depths();
    pool_->submit([this, moved = std::move(batch)]() mutable {
      process_batch(std::move(moved));
    });
  }
}

void PlanServer::process_batch(std::vector<Pending> batch) {
  const auto batch_start = std::chrono::steady_clock::now();
  const ModelKeyView key = batch.front().key.view();
  // One snapshot resolution and one planner for the whole batch: the
  // amortization the micro-batcher exists for.  Requests racing an
  // ingest plan against this snapshot and stamp its epoch; the cache
  // serves them only while that epoch is still current.
  const ModelSnapshot* snap = store_.snapshot(key);

  for (Pending& pending : batch) {
    wall_span("queue", pending.enqueued, batch_start,
              {obs::arg("seq", pending.seq)});
    if (!snap) {
      counters_.failed.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) obs_handles()->failed->add();
      fail(pending, PlanStatus::kFailed,
           "no model seeded for (" + pending.key.app + ", " +
               pending.key.shape + ")");
      continue;
    }
    if (config_.cache_plans) {
      if (pending.fingerprint == 0) {
        pending.fingerprint = request_fingerprint(
            *pending.request.corpus, pending.request.options,
            pending.request.corpus_tag);
      }
      // A batch sibling (or a racing batch) may have planned the same
      // request already.
      if (const auto hit =
              cache_.find(key, pending.fingerprint, snap->epoch)) {
        counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) obs_handles()->cache_hits->add();
        PlanResponse response;
        response.status = PlanStatus::kOk;
        response.cache_hit = true;
        response.plan = hit->plan;
        response.model_epoch = hit->model_epoch;
        pending.promise.set_value(std::move(response));
        continue;
      }
    }
    const auto plan_start = std::chrono::steady_clock::now();
    try {
      provision::ExecutionPlan plan = provision::plan(
          snap->predictor, *pending.request.corpus, pending.request.options);
      const auto plan_end = std::chrono::steady_clock::now();
      const double plan_s =
          std::chrono::duration<double>(plan_end - plan_start).count();
      // Advisory EWMA (relaxed, lost updates tolerated): feeds the
      // retry-after hint only.
      const double prev = ewma_plan_s_.load(std::memory_order_relaxed);
      ewma_plan_s_.store(0.9 * prev + 0.1 * plan_s,
                         std::memory_order_relaxed);
      counters_.planned.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) {
        ObsHandles* h = obs_handles();
        h->planned->add();
        h->plan_latency_us->observe(plan_s * 1e6);
      }
      wall_span("plan", plan_start, plan_end,
                {obs::arg("app", pending.key.app),
                 obs::arg("instances",
                          static_cast<std::uint64_t>(plan.instance_count())),
                 obs::arg("epoch", snap->epoch)});
      if (config_.cache_plans) {
        cache_.put(key, pending.fingerprint, snap->epoch, plan);
      }
      PlanResponse response;
      response.status = PlanStatus::kOk;
      response.plan = std::move(plan);
      response.model_epoch = snap->epoch;
      pending.promise.set_value(std::move(response));
    } catch (const std::exception& e) {
      counters_.failed.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) obs_handles()->failed->add();
      fail(pending, PlanStatus::kFailed, e.what());
    }
  }
  wall_span("batch", batch_start, std::chrono::steady_clock::now(),
            {obs::arg("app", batch.front().key.app),
             obs::arg("n", static_cast<std::uint64_t>(batch.size()))});
}

}  // namespace reshape::serve
