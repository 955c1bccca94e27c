// Planning-service benchmark — the perf tracker for serve::PlanServer
// (DESIGN.md "Planning service").
//
// The C3O-style multi-tenant story: many tenants replan the same
// workload families over and over (same corpus shape, a handful of
// deadline variants), so a planning *service* wins not by parallelism
// but by amortization — plan caching, shared model fits, batch-shared
// snapshot resolution.  This driver measures that claim with a
// closed-loop client fleet against the same request mix a one-shot
// library user would replan from scratch every time:
//
//   baseline      single thread calling provision::plan() directly per
//                 request (no service, no cache) — the library user
//   concurrency   the server under 1x / 8x / 64x closed-loop clients:
//                 throughput, cache hit rate, p50/p99 latency
//   cache         mean cache-hit latency vs the baseline cold plan
//   identity      server-produced plans digested against direct
//                 provision::plan() calls — must match bit for bit
//   invalidation  probe ingests bump the model epoch and kill exactly
//                 the stale plans (stale counter, re-plan, re-hit)
//   admission     an undersized server under burst load; rejected
//                 clients retry on RetryPolicy::for_admission()
//
// Modes:
//   micro_serve           full reps, writes BENCH_planner_serve.json
//   micro_serve --smoke   fewer requests; exits nonzero when the 64x
//                         throughput falls under kThroughputFloor times
//                         the baseline, the cache-hit speedup falls
//                         under kHitSpeedupFloor, the 64x p99 exceeds
//                         kP99CeilingMs, or any plan differs from the
//                         direct library call.  Wired into the
//                         bench-smoke CTest label and CI perf-smoke.
//
// The throughput gate is deliberately about amortization, not cores:
// this repo's reference machine is single-core, so a >= 4x win must —
// and does — come from the cache fast path and shared fits, which is
// exactly the service's value proposition.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "corpus/corpus.hpp"
#include "model/predictor.hpp"
#include "provision/planner.hpp"
#include "serve/server.hpp"

namespace {

using namespace reshape;

constexpr double kThroughputFloor = 4.0;   // 64x server vs 1-thread library
constexpr double kHitSpeedupFloor = 10.0;  // cache hit vs cold plan
constexpr double kP99CeilingMs = 250.0;    // 64x closed-loop p99

constexpr std::size_t kTenants = 8;
constexpr std::size_t kVariants = 4;  // deadline variants per tenant
constexpr double kDeadlines[kVariants] = {30.0, 45.0, 60.0, 90.0};

struct Tenant {
  std::string app;
  std::shared_ptr<const corpus::Corpus> corpus;
  model::Predictor prior;
  std::uint64_t tag = 0;
};

std::vector<Tenant> make_tenants() {
  std::vector<Tenant> tenants;
  Rng rng(0x5e53e001ULL);
  for (std::size_t t = 0; t < kTenants; ++t) {
    Rng stream = rng.split(t);
    std::vector<corpus::VirtualFile> files;
    files.reserve(2000);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const std::uint64_t size = 512 * 1024 + stream() % (1024 * 1024);
      files.push_back(corpus::VirtualFile{i, Bytes(size), 1.0});
    }
    model::AffineFit fit;
    fit.intercept = 5.0;
    fit.slope = 1e-7 * (1.0 + 0.05 * static_cast<double>(t));
    tenants.push_back(Tenant{
        "tenant-" + std::to_string(t),
        std::make_shared<corpus::Corpus>(std::move(files)),
        model::Predictor(fit), t + 1});
  }
  return tenants;
}

provision::PlanOptions options_for(std::size_t variant) {
  provision::PlanOptions options;
  options.deadline = Seconds(kDeadlines[variant % kVariants]);
  options.strategy = provision::PackingStrategy::kUniform;
  return options;
}

serve::PlanRequest request_for(const Tenant& tenant, std::size_t variant) {
  serve::PlanRequest request;
  request.app = tenant.app;
  request.shape = "v1";
  request.corpus = tenant.corpus;
  request.options = options_for(variant);
  request.corpus_tag = tenant.tag;
  return request;
}

/// Order-sensitive digest of every field of a plan; two plans digest
/// equal iff they are bit-identical.
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

double percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double pos =
      q * static_cast<double>(sorted_in_place.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_in_place.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_in_place[lo] * (1.0 - frac) + sorted_in_place[hi] * frac;
}

struct PhaseResult {
  std::size_t clients = 0;
  std::size_t requests = 0;
  double seconds = 0.0;
  double plans_per_s = 0.0;
  double hit_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_mean_us = 0.0;
  double miss_mean_us = 0.0;
  std::uint64_t failures = 0;
};

serve::ServerConfig serving_config() {
  serve::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 4096;
  config.max_batch = 16;
  config.batch_window = Seconds(0.0);
  return config;
}

/// Closed loop: `clients` threads each issue `per_client` requests from
/// the repeated multi-tenant mix against a fresh server (cold cache).
PhaseResult run_phase(const std::vector<Tenant>& tenants,
                      std::size_t clients, std::size_t per_client) {
  serve::PlanServer server(serving_config());
  for (const Tenant& tenant : tenants) {
    server.seed_model(tenant.app, "v1", tenant.prior);
  }

  struct ClientOut {
    std::vector<double> latencies_us;
    std::vector<double> hit_us;
    std::vector<double> miss_us;
    std::uint64_t hits = 0;
    std::uint64_t failures = 0;
  };
  std::vector<ClientOut> outs(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);

  const auto wall0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = outs[c];
      out.latencies_us.reserve(per_client);
      const Tenant& tenant = tenants[c % kTenants];
      for (std::size_t i = 0; i < per_client; ++i) {
        serve::PlanRequest request = request_for(tenant, i % kVariants);
        const auto t0 = std::chrono::steady_clock::now();
        const serve::PlanResponse response =
            server.plan_sync(std::move(request));
        const auto t1 = std::chrono::steady_clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        out.latencies_us.push_back(us);
        if (response.status != serve::PlanStatus::kOk) {
          out.failures += 1;
        } else if (response.cache_hit) {
          out.hits += 1;
          out.hit_us.push_back(us);
        } else {
          out.miss_us.push_back(us);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto wall1 = std::chrono::steady_clock::now();

  PhaseResult result;
  result.clients = clients;
  result.requests = clients * per_client;
  result.seconds = std::chrono::duration<double>(wall1 - wall0).count();
  result.plans_per_s =
      static_cast<double>(result.requests) / result.seconds;
  std::vector<double> all;
  double hit_sum = 0.0, miss_sum = 0.0;
  std::size_t hit_n = 0, miss_n = 0;
  std::uint64_t hits = 0;
  for (const ClientOut& out : outs) {
    all.insert(all.end(), out.latencies_us.begin(), out.latencies_us.end());
    for (const double us : out.hit_us) hit_sum += us;
    for (const double us : out.miss_us) miss_sum += us;
    hit_n += out.hit_us.size();
    miss_n += out.miss_us.size();
    hits += out.hits;
    result.failures += out.failures;
  }
  result.hit_rate =
      static_cast<double>(hits) / static_cast<double>(result.requests);
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  result.hit_mean_us =
      hit_n > 0 ? hit_sum / static_cast<double>(hit_n) : 0.0;
  result.miss_mean_us =
      miss_n > 0 ? miss_sum / static_cast<double>(miss_n) : 0.0;
  return result;
}

struct AdmissionResult {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected_attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t unresolved = 0;  // promises dropped — must be zero
};

/// Burst load against an undersized server; rejected clients back off on
/// the for_admission() schedule and retry within its attempt budget.
AdmissionResult run_admission(const std::vector<Tenant>& tenants,
                              std::size_t clients, std::size_t per_client) {
  serve::ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.batch_window = Seconds(0.0);
  config.cache_plans = false;  // every admitted request costs a real plan
  serve::PlanServer server(config);
  for (const Tenant& tenant : tenants) {
    server.seed_model(tenant.app, "v1", tenant.prior);
  }

  const RetryPolicy policy = RetryPolicy::for_admission();
  std::vector<AdmissionResult> outs(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      AdmissionResult& out = outs[c];
      Rng rng = Rng(0xAD315510).split(c);
      const Tenant& tenant = tenants[c % kTenants];
      for (std::size_t i = 0; i < per_client; ++i) {
        out.requests += 1;
        bool resolved = false;
        for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
          const serve::PlanResponse response =
              server.plan_sync(request_for(tenant, i % kVariants));
          if (response.status != serve::PlanStatus::kRejected) {
            if (response.status == serve::PlanStatus::kOk) out.ok += 1;
            resolved = true;
            break;
          }
          out.rejected_attempts += 1;
          if (attempt + 1 >= policy.max_attempts) break;
          out.retries += 1;
          const Seconds backoff = policy.jittered_backoff(attempt, rng);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff.value()));
        }
        if (!resolved) out.exhausted += 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  AdmissionResult total;
  for (const AdmissionResult& out : outs) {
    total.requests += out.requests;
    total.ok += out.ok;
    total.rejected_attempts += out.rejected_attempts;
    total.retries += out.retries;
    total.exhausted += out.exhausted;
  }
  total.unresolved = total.requests - total.ok - total.exhausted;
  return total;
}

void print_phase(const PhaseResult& r) {
  std::printf(
      "  %3zux clients  %6zu reqs  %9.0f plans/s  hit %5.1f%%  "
      "p50 %8.1f us  p99 %9.1f us\n",
      r.clients, r.requests, r.plans_per_s, r.hit_rate * 100.0, r.p50_us,
      r.p99_us);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  std::printf("-- %s mode\n", smoke ? "smoke" : "full");

  const std::vector<Tenant> tenants = make_tenants();

  // Baseline: the one-shot library user, single thread, replanning every
  // request from scratch.
  const std::size_t base_plans = smoke ? 256 : 1024;
  const auto b0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::size_t r = 0; r < base_plans; ++r) {
    const Tenant& tenant = tenants[r % kTenants];
    const provision::ExecutionPlan plan = provision::plan(
        tenant.prior, *tenant.corpus, options_for(r / kTenants));
    sink ^= plan.assignments.size();
  }
  const auto b1 = std::chrono::steady_clock::now();
  const double base_s = std::chrono::duration<double>(b1 - b0).count();
  const double base_plans_per_s = static_cast<double>(base_plans) / base_s;
  const double base_mean_us =
      base_s / static_cast<double>(base_plans) * 1e6;
  std::printf("  baseline (direct provision::plan, 1 thread): %.0f plans/s"
              "  mean %.1f us  [sink %llu]\n",
              base_plans_per_s, base_mean_us,
              static_cast<unsigned long long>(sink));

  // Server under 1x / 8x / 64x closed-loop clients.
  const std::size_t scale = smoke ? 1 : 4;
  const PhaseResult r1 = run_phase(tenants, 1, 512 * scale);
  const PhaseResult r8 = run_phase(tenants, 8, 64 * scale);
  const PhaseResult r64 = run_phase(tenants, 64, 32 * scale);
  print_phase(r1);
  print_phase(r8);
  print_phase(r64);
  const double speedup64 = r64.plans_per_s / base_plans_per_s;
  const double hit_speedup =
      r1.hit_mean_us > 0.0 ? base_mean_us / r1.hit_mean_us : 0.0;
  std::printf("  64x throughput vs baseline: %.1fx   cache hit vs cold "
              "plan: %.1fx (%.1f us vs %.1f us)\n",
              speedup64, hit_speedup, r1.hit_mean_us, base_mean_us);

  // Bit-identity: every (tenant, variant) plan from the server must
  // digest equal to the direct library call, cold and from cache.
  std::size_t identity_checked = 0, identity_mismatches = 0;
  std::uint64_t stale_killed = 0;
  {
    serve::PlanServer server(serving_config());
    for (const Tenant& tenant : tenants) {
      server.seed_model(tenant.app, "v1", tenant.prior);
    }
    for (const Tenant& tenant : tenants) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        const std::uint64_t direct = plan_digest(
            provision::plan(tenant.prior, *tenant.corpus, options_for(v)));
        const serve::PlanResponse cold =
            server.plan_sync(request_for(tenant, v));
        const serve::PlanResponse cached =
            server.plan_sync(request_for(tenant, v));
        identity_checked += 2;
        if (cold.status != serve::PlanStatus::kOk ||
            plan_digest(cold.plan) != direct || cold.cache_hit) {
          identity_mismatches += 1;
        }
        if (cached.status != serve::PlanStatus::kOk ||
            plan_digest(cached.plan) != direct || !cached.cache_hit) {
          identity_mismatches += 1;
        }
      }
    }

    // Epoch invalidation: probe ingests refit tenant-0's model; its
    // cached plans die stale, everyone else's keep hitting.
    const Tenant& probed = tenants[0];
    for (int p = 0; p < 4; ++p) {
      (void)server.ingest(probed.app, "v1",
                          Bytes((1u + static_cast<unsigned>(p)) * 100u *
                                1024u * 1024u),
                          Seconds(12.0 + 3.0 * p));
    }
    const serve::PlanResponse replanned =
        server.plan_sync(request_for(probed, 0));
    const serve::PlanResponse rehit =
        server.plan_sync(request_for(probed, 0));
    const serve::PlanResponse other =
        server.plan_sync(request_for(tenants[1], 0));
    if (replanned.cache_hit || !rehit.cache_hit || !other.cache_hit) {
      identity_mismatches += 1;  // invalidation scoped wrong
    }
    stale_killed = server.cache().stale();
    std::printf("  identity: %zu checks, %zu mismatches; invalidation: "
                "%llu stale plans killed by 4 ingests\n",
                identity_checked, identity_mismatches,
                static_cast<unsigned long long>(stale_killed));
  }

  // Admission under burst: undersized server, rejected clients on the
  // for_admission() retry schedule.
  const AdmissionResult adm =
      run_admission(tenants, 16, smoke ? 4 : 16);
  std::printf("  admission: %llu reqs, %llu ok, %llu rejections, %llu "
              "retries, %llu exhausted, %llu unresolved\n",
              static_cast<unsigned long long>(adm.requests),
              static_cast<unsigned long long>(adm.ok),
              static_cast<unsigned long long>(adm.rejected_attempts),
              static_cast<unsigned long long>(adm.retries),
              static_cast<unsigned long long>(adm.exhausted),
              static_cast<unsigned long long>(adm.unresolved));

  FILE* out = std::fopen("BENCH_planner_serve.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_serve\",\n");
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out,
                 "  \"gates\": {\"throughput_x\": %.1f, \"hit_speedup\": "
                 "%.1f, \"p99_ms\": %.1f},\n",
                 kThroughputFloor, kHitSpeedupFloor, kP99CeilingMs);
    std::fprintf(out,
                 "  \"baseline\": {\"plans\": %zu, \"seconds\": %.6f, "
                 "\"plans_per_s\": %.1f, \"mean_us\": %.2f},\n",
                 base_plans, base_s, base_plans_per_s, base_mean_us);
    std::fprintf(out, "  \"concurrency\": [\n");
    const PhaseResult* phases[] = {&r1, &r8, &r64};
    for (std::size_t i = 0; i < 3; ++i) {
      const PhaseResult& r = *phases[i];
      std::fprintf(out,
                   "    {\"clients\": %zu, \"requests\": %zu, \"seconds\": "
                   "%.6f, \"plans_per_s\": %.1f, \"hit_rate\": %.4f, "
                   "\"p50_us\": %.2f, \"p99_us\": %.2f, \"hit_mean_us\": "
                   "%.2f, \"miss_mean_us\": %.2f, \"failures\": %llu}%s\n",
                   r.clients, r.requests, r.seconds, r.plans_per_s,
                   r.hit_rate, r.p50_us, r.p99_us, r.hit_mean_us,
                   r.miss_mean_us,
                   static_cast<unsigned long long>(r.failures),
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"speedup\": {\"throughput_64x\": %.2f, "
                 "\"cache_hit\": %.2f},\n",
                 speedup64, hit_speedup);
    std::fprintf(out,
                 "  \"identity\": {\"checked\": %zu, \"mismatches\": %zu, "
                 "\"stale_killed\": %llu},\n",
                 identity_checked, identity_mismatches,
                 static_cast<unsigned long long>(stale_killed));
    std::fprintf(out,
                 "  \"admission\": {\"requests\": %llu, \"ok\": %llu, "
                 "\"rejected_attempts\": %llu, \"retries\": %llu, "
                 "\"exhausted\": %llu, \"unresolved\": %llu}\n",
                 static_cast<unsigned long long>(adm.requests),
                 static_cast<unsigned long long>(adm.ok),
                 static_cast<unsigned long long>(adm.rejected_attempts),
                 static_cast<unsigned long long>(adm.retries),
                 static_cast<unsigned long long>(adm.exhausted),
                 static_cast<unsigned long long>(adm.unresolved));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_planner_serve.json\n");
  }

  bool ok = true;
  if (identity_mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %zu server plans differ from the direct library "
                 "call (or invalidation misfired)\n",
                 identity_mismatches);
    return 2;
  }
  if (r1.failures + r8.failures + r64.failures != 0 ||
      adm.unresolved != 0) {
    std::fprintf(stderr, "FATAL: requests failed or went unresolved\n");
    return 2;
  }
  if (smoke) {
    if (speedup64 < kThroughputFloor) {
      std::fprintf(stderr,
                   "SMOKE FAIL: 64x throughput %.1fx under the %.1fx "
                   "floor over the one-shot baseline\n",
                   speedup64, kThroughputFloor);
      ok = false;
    }
    if (hit_speedup < kHitSpeedupFloor) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cache-hit speedup %.1fx under the %.1fx "
                   "floor (hit %.1f us, cold %.1f us)\n",
                   hit_speedup, kHitSpeedupFloor, r1.hit_mean_us,
                   base_mean_us);
      ok = false;
    }
    if (r64.p99_us > kP99CeilingMs * 1000.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: 64x p99 %.1f ms exceeds the %.0f ms "
                   "ceiling\n",
                   r64.p99_us / 1000.0, kP99CeilingMs);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke ok: amortization and tail latency within gates\n");
  }
  return 0;
}
