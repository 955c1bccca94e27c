// PlanServer end-to-end: bit-identical plans, cache hits, epoch
// invalidation, micro-batching, admission control and clean shutdown.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "provision/planner.hpp"
#include "serve/model_key.hpp"

namespace reshape::serve {
namespace {

model::Predictor prior_fit(double intercept, double slope) {
  model::AffineFit fit;
  fit.intercept = intercept;
  fit.slope = slope;
  return model::Predictor(fit);
}

std::shared_ptr<const corpus::Corpus> test_corpus(std::size_t files,
                                                  std::uint64_t file_size) {
  std::vector<corpus::VirtualFile> v;
  for (std::uint64_t i = 0; i < files; ++i) {
    v.push_back(corpus::VirtualFile{i, Bytes(file_size), 1.0});
  }
  return std::make_shared<corpus::Corpus>(std::move(v));
}

/// Field-by-field bit comparison of two plans.
void expect_identical(const provision::ExecutionPlan& a,
                      const provision::ExecutionPlan& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.deadline.value()),
            std::bit_cast<std::uint64_t>(b.deadline.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.planning_deadline.value()),
            std::bit_cast<std::uint64_t>(b.planning_deadline.value()));
  EXPECT_EQ(a.per_instance_target.count(), b.per_instance_target.count());
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].volume.count(),
              b.assignments[i].volume.count());
    EXPECT_EQ(a.assignments[i].file_count, b.assignments[i].file_count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.assignments[i].mean_complexity),
              std::bit_cast<std::uint64_t>(b.assignments[i].mean_complexity));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_makespan.value()),
            std::bit_cast<std::uint64_t>(b.predicted_makespan.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_instance_hours),
            std::bit_cast<std::uint64_t>(b.predicted_instance_hours));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_cost.amount()),
            std::bit_cast<std::uint64_t>(b.predicted_cost.amount()));
}

PlanRequest request_for(std::shared_ptr<const corpus::Corpus> corpus,
                        double deadline_s, std::uint64_t tag = 0,
                        std::string app = "grep") {
  PlanRequest request;
  request.app = std::move(app);
  request.shape = "v1";
  request.corpus = std::move(corpus);
  request.options.deadline = Seconds(deadline_s);
  request.options.strategy = provision::PackingStrategy::kUniform;
  request.corpus_tag = tag;
  return request;
}

TEST(PlanServer, ServedPlanIsBitIdenticalToTheDirectLibraryCall) {
  PlanServer server;
  const model::Predictor prior = prior_fit(5.0, 1e-7);
  server.seed_model("grep", "v1", prior);
  const auto corpus = test_corpus(200, 10u << 20);

  const PlanResponse response = server.plan_sync(request_for(corpus, 60.0));
  ASSERT_EQ(response.status, PlanStatus::kOk);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.model_epoch, 1u);

  PlanRequest direct = request_for(corpus, 60.0);
  expect_identical(response.plan,
                   provision::plan(prior, *corpus, direct.options));
}

TEST(PlanServer, RepeatRequestHitsTheCacheWithTheSamePlan) {
  PlanServer server;
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  const auto corpus = test_corpus(200, 10u << 20);

  const PlanResponse cold = server.plan_sync(request_for(corpus, 60.0));
  const PlanResponse warm = server.plan_sync(request_for(corpus, 60.0));
  ASSERT_EQ(cold.status, PlanStatus::kOk);
  ASSERT_EQ(warm.status, PlanStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  expect_identical(cold.plan, warm.plan);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.planned, 1u);
}

TEST(PlanServer, DifferentOptionsBypassTheCache) {
  PlanServer server;
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  const auto corpus = test_corpus(200, 10u << 20);

  const PlanResponse a = server.plan_sync(request_for(corpus, 60.0));
  const PlanResponse b = server.plan_sync(request_for(corpus, 90.0));
  ASSERT_EQ(a.status, PlanStatus::kOk);
  ASSERT_EQ(b.status, PlanStatus::kOk);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(a.plan.assignments.size(), b.plan.assignments.size());
}

TEST(PlanServer, IngestInvalidatesExactlyTheRefittedKey) {
  PlanServer server;
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  server.seed_model("pos", "v1", prior_fit(9.0, 4e-7));
  const auto corpus = test_corpus(200, 10u << 20);

  (void)server.plan_sync(request_for(corpus, 60.0));
  (void)server.plan_sync(request_for(corpus, 60.0, 0, "pos"));

  // Enough probes to clear the evidence floor and move the fit.
  (void)server.ingest("grep", "v1", Bytes(100u << 20), Seconds(16.0));
  (void)server.ingest("grep", "v1", Bytes(200u << 20), Seconds(26.0));
  const std::uint64_t epoch =
      server.ingest("grep", "v1", Bytes(400u << 20), Seconds(46.0));
  EXPECT_EQ(epoch, 4u);

  const PlanResponse replanned = server.plan_sync(request_for(corpus, 60.0));
  ASSERT_EQ(replanned.status, PlanStatus::kOk);
  EXPECT_FALSE(replanned.cache_hit);  // stale plan died with the old epoch
  EXPECT_EQ(replanned.model_epoch, 4u);

  const PlanResponse untouched =
      server.plan_sync(request_for(corpus, 60.0, 0, "pos"));
  EXPECT_TRUE(untouched.cache_hit);  // the neighbor's plans survived
  EXPECT_EQ(server.stats().ingests, 3u);
}

TEST(PlanServer, EmptyShapeDerivesTheCorpusSignature) {
  PlanServer server;
  const auto corpus = test_corpus(200, 10u << 20);
  server.seed_model("grep", corpus_shape_signature(*corpus),
                    prior_fit(5.0, 1e-7));

  PlanRequest request = request_for(corpus, 60.0);
  request.shape.clear();
  const PlanResponse response = server.plan_sync(std::move(request));
  EXPECT_EQ(response.status, PlanStatus::kOk);
}

TEST(PlanServer, UnknownModelFailsTheRequest) {
  PlanServer server;
  const PlanResponse response =
      server.plan_sync(request_for(test_corpus(8, 1u << 20), 60.0));
  EXPECT_EQ(response.status, PlanStatus::kFailed);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(PlanServer, InfeasibleRequestFailsWithThePlannersError) {
  PlanServer server;
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  // Deadline below the intercept: even an empty assignment misses.
  const PlanResponse response =
      server.plan_sync(request_for(test_corpus(8, 1u << 20), 1.0));
  EXPECT_EQ(response.status, PlanStatus::kFailed);
  EXPECT_FALSE(response.error.empty());
}

TEST(PlanServer, SameKeyRequestsFormOneMicroBatch) {
  ServerConfig config;
  config.workers = 1;
  config.max_batch = 8;
  config.batch_window = Seconds(1.0);  // generous: all 8 arrive in time
  PlanServer server(config);
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  const auto corpus = test_corpus(64, 10u << 20);

  // Distinct deadlines so no request can be served from the cache.
  std::vector<std::future<PlanResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(request_for(corpus, 60.0 + i)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, PlanStatus::kOk);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batched_requests, 8u);
  // All eight shared the window, so they dispatched in far fewer batches
  // than requests — exactly one when the dispatcher wasn't outraced.
  EXPECT_LE(stats.batches, 2u);
  EXPECT_EQ(stats.planned, 8u);
}

Pending pending_for(std::uint64_t seq) {
  Pending pending;
  pending.key = ModelKey("grep", "v1");
  pending.seq = seq;
  return pending;
}

TEST(AdmissionQueue, FullQueueHandsBackTheNewcomerAndStaysUnchanged) {
  AdmissionQueue queue(2);
  EXPECT_FALSE(queue.admit(pending_for(1)).has_value());
  EXPECT_FALSE(queue.admit(pending_for(2)).has_value());

  const std::optional<Pending> refused = queue.admit(pending_for(3));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->seq, 3u);
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.high_water(), 2u);

  const std::vector<Pending> queued = queue.drain();
  ASSERT_EQ(queued.size(), 2u);
  EXPECT_EQ(queued[0].seq, 1u);
  EXPECT_EQ(queued[1].seq, 2u);
}

TEST(AdmissionQueue, AdmittingAfterStopRefuses) {
  AdmissionQueue queue(4);
  EXPECT_FALSE(queue.admit(pending_for(1)).has_value());
  queue.stop();
  const std::optional<Pending> refused = queue.admit(pending_for(2));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->seq, 2u);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(PlanServer, OverloadRejectsWithARetryAfterHint) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.max_batch = 16;
  config.batch_window = Seconds(0.5);
  PlanServer server(config);
  server.seed_model("a", "v1", prior_fit(5.0, 1e-7));
  server.seed_model("b", "v1", prior_fit(5.0, 1e-7));
  const auto corpus = test_corpus(64, 10u << 20);

  // The dispatcher pops this key-a request and lingers in its batch
  // window, leaving the queue to the key-b requests below.
  auto lead_future = server.submit(request_for(corpus, 60.0, 0, "a"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<std::future<PlanResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(request_for(corpus, 60.0 + i, 0, "b")));
  }

  std::vector<PlanResponse> responses;
  responses.push_back(futures[0].get());
  responses.push_back(futures[1].get());
  responses.push_back(futures[2].get());
  std::size_t ok = 0, rejected = 0;
  for (const PlanResponse& r : responses) {
    if (r.status == PlanStatus::kOk) ok += 1;
    if (r.status == PlanStatus::kRejected) {
      rejected += 1;
      EXPECT_GT(r.retry_after.value(), 0.0);
    }
  }
  EXPECT_EQ(ok, 2u);        // capacity admitted
  EXPECT_EQ(rejected, 1u);  // the overflow refused, with a hint
  EXPECT_EQ(lead_future.get().status, PlanStatus::kOk);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_GT(server.retry_after_hint().value(), 0.0);
}

TEST(PlanServer, ShutdownResolvesEveryOutstandingPromise) {
  std::vector<std::future<PlanResponse>> futures;
  {
    ServerConfig config;
    config.workers = 1;
    config.max_batch = 1;
    config.batch_window = Seconds(0.0);
    PlanServer server(config);
    server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
    const auto corpus = test_corpus(400, 10u << 20);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(server.submit(request_for(corpus, 60.0 + i)));
    }
    // Destructor runs here with requests still in flight.
  }
  for (auto& f : futures) {
    const PlanResponse response = f.get();  // never a broken promise
    EXPECT_TRUE(response.status == PlanStatus::kOk ||
                response.status == PlanStatus::kShed);
  }
}

TEST(PlanServer, StatsAndDepthAccessorsWork) {
  PlanServer server;
  server.seed_model("grep", "v1", prior_fit(5.0, 1e-7));
  EXPECT_EQ(server.queue_depth(), 0u);
  const auto corpus = test_corpus(32, 1u << 20);
  (void)server.plan_sync(request_for(corpus, 60.0, 11));
  (void)server.plan_sync(request_for(corpus, 60.0, 11));
  EXPECT_EQ(server.stats().requests, 2u);
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_EQ(server.models().size(), 1u);
}

}  // namespace
}  // namespace reshape::serve
