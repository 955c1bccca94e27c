// serve family: a closed-loop client fleet against serve::PlanServer.
//
// 8 tenants x 4 deadline variants of small corpora.  Each client walks the
// 32 (tenant, variant) keys in its own order, submits one plan request at
// a time and waits for the reply; before every kIngestEvery-th request it
// also ingests one probe observation (a model-store write) for the tenant
// it is about to ask about, which invalidates that tenant's cached plans.
// Client threads plus plan workers number at most nproc.  One step is one
// pass on a fresh server.  Each metric comes from the untraced passes'
// own values: the 20th percentile of their p50 and p99, the 80th of their
// rate.  A cold request crosses several thread wake-ups (dispatcher,
// worker, client), and on a shared host a wake-up takes from microseconds
// to a millisecond as other tenants come and go: one pass's p99 ranged
// 0.15-2.6 ms within one run, and in some runs most passes were slow.  A
// quantile pooled over all passes, or the median pass, jumped with that
// mix (spreads of 1.2 over ten runs); the fast passes hold better.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "corpus/corpus.hpp"
#include "model/predictor.hpp"
#include "provision/planner.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace reshape;

constexpr std::size_t kTenants = 8;
constexpr std::size_t kVariants = 4;
constexpr std::size_t kKeys = kTenants * kVariants;
constexpr double kDeadlines[kVariants] = {30.0, 45.0, 60.0, 90.0};
constexpr std::size_t kFilesPerTenant = 2000;
constexpr std::size_t kIngestEvery = 32;
// Requests per client in one pass, at full and at probe scale.
constexpr std::size_t kFullRequestsPerClient = 4096;
constexpr std::size_t kProbeRequestsPerClient = 1024;
const std::string kShape = "v1";

struct Tenant {
  std::string app;
  std::shared_ptr<const corpus::Corpus> corpus;
  model::AffineFit fit;
  std::uint64_t tag = 0;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  std::vector<Tenant> tenants;
  const Rng rng = Rng(seed).split("serve");
  for (std::size_t t = 0; t < kTenants; ++t) {
    Rng stream = rng.split(t);
    std::vector<corpus::VirtualFile> files;
    files.reserve(kFilesPerTenant);
    for (std::uint64_t i = 0; i < kFilesPerTenant; ++i) {
      const std::uint64_t size = 512 * 1024 + stream.uniform_below(1024 * 1024);
      files.push_back(corpus::VirtualFile{i, Bytes(size), 1.0});
    }
    model::AffineFit fit;
    fit.intercept = 5.0;
    fit.slope = 1e-7 * (1.0 + 0.05 * static_cast<double>(t));
    tenants.push_back(Tenant{"tenant-" + std::to_string(t),
                             std::make_shared<corpus::Corpus>(std::move(files)),
                             fit, t + 1});
  }
  return tenants;
}

provision::PlanOptions options_for(std::size_t variant) {
  provision::PlanOptions options;
  options.deadline = Seconds(kDeadlines[variant]);
  options.strategy = provision::PackingStrategy::kUniform;
  return options;
}

serve::PlanRequest request_for(const Tenant& tenant, std::size_t variant) {
  serve::PlanRequest request;
  request.app = tenant.app;
  request.shape = kShape;
  request.corpus = tenant.corpus;
  request.options = options_for(variant);
  request.corpus_tag = tenant.tag;
  return request;
}

/// Order-sensitive digest of every field of a plan.
std::uint64_t plan_digest(const provision::ExecutionPlan& plan) {
  Digest64 d;
  d.update_u64(static_cast<std::uint64_t>(plan.strategy));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.deadline.value()));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.planning_deadline.value()));
  d.update_u64(plan.per_instance_target.count());
  d.update_u64(plan.assignments.size());
  for (const provision::Assignment& a : plan.assignments) {
    d.update_u64(a.volume.count());
    d.update_u64(a.file_count);
    d.update_u64(std::bit_cast<std::uint64_t>(a.mean_complexity));
    d.update_u64(std::bit_cast<std::uint64_t>(a.value));
  }
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_makespan.value()));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_instance_hours));
  d.update_u64(std::bit_cast<std::uint64_t>(plan.predicted_cost.amount()));
  return d.value();
}

// One client and one plan worker (with the server's dispatcher, three
// threads): on a shared 4-CPU host, two clients and two workers spent
// much of a pass waiting for a CPU, and passes spread up to 3x.
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kClients = 1;
std::size_t worker_count() { return kWorkers; }
std::size_t client_count() { return kClients; }

/// A started server with every tenant's model seeded and every key
/// planned once.
struct Setup {
  std::vector<Tenant> tenants;
  std::unique_ptr<serve::PlanServer> server;
  double cold_plan_s = 0.0;  // direct provision::plan, mean over the keys
};

void make_setup(std::uint64_t seed, Setup& s) {
  s.server.reset();
  s.tenants = make_tenants(seed);
  const double t0 = now_s();
  for (std::size_t k = 0; k < kKeys; ++k) {
    const Tenant& tenant = s.tenants[k / kVariants];
    (void)provision::plan(model::Predictor(tenant.fit), *tenant.corpus,
                          options_for(k % kVariants));
  }
  s.cold_plan_s = (now_s() - t0) / static_cast<double>(kKeys);
  serve::ServerConfig config;
  config.workers = worker_count();
  config.queue_capacity = 4096;
  s.server = std::make_unique<serve::PlanServer>(config);
  for (const Tenant& tenant : s.tenants) {
    s.server->seed_model(tenant.app, kShape, model::Predictor(tenant.fit));
  }
  for (std::size_t k = 0; k < kKeys; ++k) {
    (void)s.server->plan_sync(
        request_for(s.tenants[k / kVariants], k % kVariants));
  }
}

/// What a run of passes observed, summed over the passes.
struct Window {
  double wall_s = 0.0;
  std::vector<double> plans_per_s;
  // Per-pass latency quantiles (failed requests count as +inf).
  std::vector<double> p50_ms, p99_ms;
  std::size_t samples_per_pass = 0;
  std::uint64_t ok = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t ingests = 0;
  std::size_t queue_depth_max = 0;
  std::size_t passes = 0;
  serve::ServerStats stats;  // server counter deltas
};

/// One pass: every client issues `requests` requests against the freshly
/// set-up server.  A fixed amount of work per pass keeps the
/// model store's snapshot retention, which grows with every ingest, the
/// same from run to run.
void run_pass(Setup& s, std::size_t requests, Tracer* tracers, Window& w) {
  const std::size_t clients = client_count();
  struct ClientOut {
    std::vector<double> latencies_ms;
    std::uint64_t ok = 0, not_ok = 0, ingests = 0;
    std::size_t queue_max = 0;
  };
  std::vector<ClientOut> outs(clients);
  const serve::ServerStats before = s.server->stats();
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = outs[c];
      Tracer off(false);
      Tracer& tracer = tracers != nullptr ? tracers[c] : off;
      out.latencies_ms.reserve(requests);
      for (std::size_t i = 0; i < requests; ++i) {
        const std::size_t key = (c * 7 + i * 5) % kKeys;
        const Tenant& tenant = s.tenants[key / kVariants];
        if (i % kIngestEvery == 0) {
          const double volume =
              64e6 * static_cast<double>(1 + (i / kIngestEvery) % 4);
          const double jitter =
              1.0 + 0.02 * (static_cast<double>(i % 5) - 2.0);
          tracer.span("serve.ingest", [&] {
            return s.server->ingest(
                tenant.app, kShape, Bytes(static_cast<std::uint64_t>(volume)),
                Seconds((tenant.fit.intercept + tenant.fit.slope * volume) *
                        jitter));
          });
          ++out.ingests;
        }
        const double tr = now_s();
        std::future<serve::PlanResponse> future =
            tracer.span("serve.submit", [&] {
              return s.server->submit(request_for(tenant, key % kVariants));
            });
        if (i % 16 == 0) {
          out.queue_max = std::max(out.queue_max, s.server->queue_depth());
        }
        const serve::PlanResponse response =
            tracer.span("serve.wait", [&] { return future.get(); });
        const double ms = (now_s() - tr) * 1e3;
        if (response.status == serve::PlanStatus::kOk) {
          ++out.ok;
          out.latencies_ms.push_back(ms);
        } else {
          ++out.not_ok;
          out.latencies_ms.push_back(1e300);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = now_s() - t0;
  w.wall_s += wall;
  std::uint64_t pass_ok = 0;
  for (const ClientOut& out : outs) pass_ok += out.ok;
  w.plans_per_s.push_back(static_cast<double>(pass_ok) / wall);
  const serve::ServerStats after = s.server->stats();
  w.stats.requests += after.requests - before.requests;
  w.stats.cache_hits += after.cache_hits - before.cache_hits;
  w.stats.batches += after.batches - before.batches;
  w.stats.batched_requests += after.batched_requests - before.batched_requests;
  w.stats.planned += after.planned - before.planned;
  w.stats.failed += after.failed - before.failed;
  w.stats.rejected += after.rejected - before.rejected;
  w.stats.shed += after.shed - before.shed;
  std::vector<double> latencies_ms;
  for (const ClientOut& out : outs) {
    latencies_ms.insert(latencies_ms.end(), out.latencies_ms.begin(),
                        out.latencies_ms.end());
    w.ok += out.ok;
    w.not_ok += out.not_ok;
    w.ingests += out.ingests;
    w.queue_depth_max = std::max(w.queue_depth_max, out.queue_max);
  }
  w.p50_ms.push_back(quantile(latencies_ms, 0.50));
  w.p99_ms.push_back(quantile(latencies_ms, 0.99));
  w.samples_per_pass = latencies_ms.size();
  ++w.passes;
}

/// Served plans against direct provision::plan() with the same snapshot.
void check_identity(Setup& s, Result& result) {
  for (std::size_t k = 0; k < kKeys; ++k) {
    const Tenant& tenant = s.tenants[k / kVariants];
    const serve::ModelSnapshot* snap =
        s.server->models().snapshot(serve::ModelKeyView{tenant.app, kShape});
    const serve::PlanResponse served =
        s.server->plan_sync(request_for(tenant, k % kVariants));
    const bool same =
        snap != nullptr && served.status == serve::PlanStatus::kOk &&
        served.model_epoch == snap->epoch &&
        plan_digest(served.plan) ==
            plan_digest(provision::plan(snap->predictor, *tenant.corpus,
                                        options_for(k % kVariants)));
    result.check(same, "serve: served plan != direct provision::plan (" +
                           tenant.app + ")");
  }
}

class Serve final : public Family {
 public:
  explicit Serve(const Options& options)
      : options_(options),
        requests_(options.full ? kFullRequestsPerClient
                               : kProbeRequestsPerClient) {}

  void setup() override {
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      const double t0 = now_s();
      make_setup(options_.seed, s_);
      setups.push_back(now_s() - t0);
      cold_.push_back(s_.cold_plan_s);
    }
    setup_s_ = median(setups);
    for (std::size_t c = 0; c < client_count(); ++c) tracers_.emplace_back(true);
  }

  void step(Tracer&, bool traced) override {
    const Unpinned all_cpus;
    // Every pass but the first gets a fresh server.
    if (steps() > 0) make_setup(options_.seed, s_);
    run_pass(s_, requests_, traced ? tracers_.data() : nullptr,
             traced ? traced_ : window_);
  }

  [[nodiscard]] std::size_t steps() const override {
    return window_.passes + traced_.passes;
  }

  void record_obs() override {
    make_setup(options_.seed, s_);
    run_pass(s_, requests_, nullptr, recorded_);
  }

  Result finish(const Tracer& tracer) override;

 private:
  Options options_;
  std::size_t requests_;
  Setup s_;
  double setup_s_ = 0.0;
  std::vector<double> cold_;
  std::vector<Tracer> tracers_;
  Window window_, traced_, recorded_;
};

Result Serve::finish(const Tracer&) {
  Result result;
  result.setup_s = setup_s_;
  check_identity(s_, result);
  for (const Window* w : {&window_, &traced_, &recorded_}) {
    result.attempted += w->ok + w->not_ok;
    result.failed += w->not_ok;
  }

  const Window& w = window_;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const std::size_t n = w.samples_per_pass;
  result.info["clients"] = std::to_string(client_count());
  result.info["workers"] = std::to_string(worker_count());
  result.info["ingest_every"] = std::to_string(kIngestEvery);
  result.info["requests_per_client_per_pass"] = std::to_string(requests_);
  result.info["passes"] = std::to_string(w.passes);
  result.info["requests"] = std::to_string(w.stats.requests);
  result.info["cold_frac"] =
      std::to_string(1.0 - d(w.stats.cache_hits) / d(w.stats.requests));
  result.info["latency_samples_per_pass"] = std::to_string(n);
  result.info["beyond_p99_per_pass"] = std::to_string(n / 100);
  result.check(n / 100 >= 10, "serve: fewer than 10 samples beyond p99");
  result.metric("plans_per_s", quantile(w.plans_per_s, 0.8), "1/s");
  result.metric("plan_latency_p50_ms", quantile(w.p50_ms, 0.2), "ms");
  result.metric("plan_latency_p99_ms", quantile(w.p99_ms, 0.2), "ms");
  if (!options_.trace) return result;

  const Window& t = traced_;
  double ingest = 0.0;
  for (const Tracer& tr : tracers_) ingest += tr.self_s("serve.ingest");
  result.layer("plan.cold_plan_s", median(cold_), "s");
  result.layer("serve.cache_hit_frac",
               d(t.stats.cache_hits) / d(t.stats.requests), "ratio");
  result.layer("serve.mean_batch_size",
               t.stats.batches == 0
                   ? 0.0
                   : d(t.stats.batched_requests) / d(t.stats.batches),
               "count");
  result.layer("serve.planned", d(t.stats.planned), "count");
  result.layer("serve.rejected", d(t.stats.rejected), "count");
  result.layer("serve.shed", d(t.stats.shed), "count");
  result.layer("serve.failed", d(t.stats.failed), "count");
  result.layer("serve.ingest_s", t.ingests == 0 ? 0.0 : ingest / d(t.ingests),
               "s");
  result.layer("serve.queue_depth_max", d(t.queue_depth_max), "count");
  result.layer("obs.trace_overhead_frac",
               median(w.plans_per_s) / median(t.plans_per_s) - 1.0, "ratio");
  return result;
}

}  // namespace

std::unique_ptr<Family> make_serve(const Options& options) {
  return std::make_unique<Serve>(options);
}

}  // namespace perfbench
