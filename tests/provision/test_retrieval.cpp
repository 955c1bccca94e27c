// Tests for the output-retrieval model (§1's second reshaping benefit).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "provision/retrieval.hpp"

namespace reshape::provision {
namespace {

TEST(OutputSegmentation, PerInputFile) {
  const OutputSegmentation seg =
      OutputSegmentation::per_input_file(400'000, 1_GB, 0.1);
  EXPECT_EQ(seg.object_count, 400'000u);
  EXPECT_EQ(seg.total_volume, 100_MB);
}

TEST(OutputSegmentation, PerBlockCeil) {
  const OutputSegmentation seg =
      OutputSegmentation::per_block(1_GB, 100_MB, 0.1);
  EXPECT_EQ(seg.object_count, 10u);
  const OutputSegmentation odd =
      OutputSegmentation::per_block(Bytes((1_GB).count() + 1), 100_MB, 1.0);
  EXPECT_EQ(odd.object_count, 11u);
}

TEST(Retrieval, RequestOverheadDominatesManySmallObjects) {
  const cloud::S3Model s3;
  const OutputSegmentation fragmented =
      OutputSegmentation::per_input_file(400'000, 1_GB, 0.1);
  const RetrievalEstimate est = expected_retrieval_time(fragmented, s3);
  EXPECT_GT(est.request_overhead, est.transfer);
  EXPECT_DOUBLE_EQ(est.total.value(),
                   est.request_overhead.value() + est.transfer.value());
}

TEST(Retrieval, ReshapedOutputRetrievesMuchFaster) {
  // §1: "a lower number of output files ... results in a shorter
  // retrieval time".  Same bytes, 40000x fewer objects.
  const cloud::S3Model s3;
  const OutputSegmentation fragmented =
      OutputSegmentation::per_input_file(400'000, 1_GB, 0.1);
  const OutputSegmentation merged =
      OutputSegmentation::per_block(1_GB, 100_MB, 0.1);
  const double t_frag = expected_retrieval_time(fragmented, s3).total.value();
  const double t_merged = expected_retrieval_time(merged, s3).total.value();
  EXPECT_GT(t_frag / t_merged, 5.0);
}

TEST(Retrieval, TransferBoundForLargeObjects) {
  const cloud::S3Model s3;
  const OutputSegmentation merged =
      OutputSegmentation::per_block(10_GB, 1_GB, 1.0);
  const RetrievalEstimate est = expected_retrieval_time(merged, s3);
  EXPECT_LT(est.request_overhead.value(), est.transfer.value() * 0.01);
  EXPECT_NEAR(est.transfer.value(),
              (10_GB).as_double() / s3.transfer_rate.bytes_per_second(),
              1e-6);
}

TEST(Retrieval, SampledMatchesExpectedOnAverage) {
  const cloud::S3Model s3;
  const OutputSegmentation seg = OutputSegmentation::per_block(1_GB, 50_MB, 0.2);
  const double expected = expected_retrieval_time(seg, s3).total.value();
  Rng rng(4);
  double total = 0.0;
  const int reps = 50;
  for (int i = 0; i < reps; ++i) {
    total += retrieval_time_sampled(seg, s3, rng).value();
  }
  EXPECT_NEAR(total / reps, expected, expected * 0.15);
}

TEST(Retrieval, ParallelStreamsDivideTime) {
  const cloud::S3Model s3;
  const OutputSegmentation seg =
      OutputSegmentation::per_input_file(10'000, 100_MB, 0.5);
  const double seq = expected_retrieval_time(seg, s3).total.value();
  EXPECT_NEAR(parallel_retrieval_time(seg, s3, 10).value(), seq / 10.0,
              1e-9);
  EXPECT_THROW((void)parallel_retrieval_time(seg, s3, 0), Error);
}

TEST(Retrieval, EmptyOutputIsFree) {
  const cloud::S3Model s3;
  const OutputSegmentation none{};
  EXPECT_DOUBLE_EQ(expected_retrieval_time(none, s3).total.value(), 0.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(retrieval_time_sampled(none, s3, rng).value(), 0.0);
}

TEST(S3Model, LatencyIsMoreVariableThanEbs) {
  // §1.1: S3 latency is "higher and more variable" than EBS.  An EBS read
  // costs the same on every attempt (placement is repeatable); the S3
  // model's per-request jitter must show as a meaningful CV on equal
  // one-object downloads.
  const cloud::S3Model s3;
  const OutputSegmentation one_object{1, 100_MB};
  Rng rng(11);
  RunningStats times;
  for (int i = 0; i < 200; ++i) {
    times.add(retrieval_time_sampled(one_object, s3, rng).value());
  }
  EXPECT_GT(times.cv(), 0.10);
}

TEST(S3Model, FetchTimeScalesWithSize) {
  const cloud::S3Model s3;
  const OutputSegmentation small{1, 1_MB};
  const OutputSegmentation large{1, 1_GB};
  Rng rng(7);
  RunningStats small_times, large_times;
  for (int i = 0; i < 50; ++i) {
    small_times.add(retrieval_time_sampled(small, s3, rng).value());
    large_times.add(retrieval_time_sampled(large, s3, rng).value());
  }
  EXPECT_GT(large_times.mean(), small_times.mean() * 50.0);
}

TEST(S3Model, ZeroModelOneObjectFetchMatchesCleanFetch) {
  const cloud::S3Model s3;
  const OutputSegmentation one_object{1, 64_MB};
  const cloud::FaultInjector faults(Rng(3), cloud::FaultModel{});
  Rng a(21), b(21);
  const Seconds clean = retrieval_time_sampled(one_object, s3, a);
  const SampledRetrieval sampled = retrieval_time_sampled_with_faults(
      one_object, s3, faults, RetryPolicy{}, "blob", b);
  EXPECT_EQ(sampled.attempts, 1);
  EXPECT_DOUBLE_EQ(sampled.total.value(), clean.value());
}

TEST(S3Model, FetchRetriesUnderTransientErrors) {
  // Twenty 1 MB objects at a 50% transient error rate: some fetch must
  // need a retry, and a generous budget lets every one succeed.
  const cloud::S3Model s3;
  const OutputSegmentation objects{20, 20_MB};
  cloud::FaultModel model;
  model.p_transfer_error = 0.5;
  const cloud::FaultInjector faults(Rng(3), model);
  RetryPolicy policy;
  policy.max_attempts = 12;
  Rng rng(4);
  const SampledRetrieval sampled =
      retrieval_time_sampled_with_faults(objects, s3, faults, policy, "o", rng);
  EXPECT_GT(sampled.attempts, 20);
}

TEST(OutputSegmentation, InvalidInputsThrow) {
  EXPECT_THROW(
      (void)OutputSegmentation::per_input_file(10, 1_MB, -0.1), Error);
  EXPECT_THROW((void)OutputSegmentation::per_block(1_MB, 0_B, 1.0), Error);
}

TEST(SampledWithFaults, ZeroModelMatchesTheCleanSampler) {
  const cloud::S3Model s3;
  const OutputSegmentation seg = OutputSegmentation::per_block(1_GB, 50_MB, 0.2);
  const cloud::FaultInjector faults(Rng(7), cloud::FaultModel{});
  Rng a(11), b(11);
  const Seconds clean = retrieval_time_sampled(seg, s3, a);
  const SampledRetrieval sampled = retrieval_time_sampled_with_faults(
      seg, s3, faults, RetryPolicy{}, "out", b);
  EXPECT_DOUBLE_EQ(sampled.total.value(), clean.value());
  EXPECT_EQ(sampled.retries, 0);
  EXPECT_DOUBLE_EQ(sampled.retry_time.value(), 0.0);
  // Both samplers must leave the rng in the same state (bit-identity for
  // any downstream draws).
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SampledWithFaults, RetriesShowUpUnderTransientErrors) {
  const cloud::S3Model s3;
  const OutputSegmentation seg = OutputSegmentation::per_block(1_GB, 50_MB, 0.2);
  cloud::FaultModel model;
  model.p_transfer_error = 0.3;
  const cloud::FaultInjector faults(Rng(7), model);
  RetryPolicy policy;
  policy.max_attempts = 8;
  Rng rng(11);
  const SampledRetrieval sampled =
      retrieval_time_sampled_with_faults(seg, s3, faults, policy, "out", rng);
  EXPECT_GT(sampled.retries, 0);
  EXPECT_GT(sampled.retry_time.value(), 0.0);
  EXPECT_EQ(sampled.attempts,
            static_cast<int>(seg.object_count) + sampled.retries);
}

TEST(SampledWithFaults, BudgetExhaustionThrowsTransferError) {
  const cloud::S3Model s3;
  const OutputSegmentation seg = OutputSegmentation::per_block(1_GB, 50_MB, 0.2);
  cloud::FaultModel model;
  model.p_transfer_error = 1.0;
  const cloud::FaultInjector faults(Rng(7), model);
  RetryPolicy policy;
  policy.max_attempts = 2;
  Rng rng(11);
  EXPECT_THROW((void)retrieval_time_sampled_with_faults(seg, s3, faults,
                                                        policy, "out", rng),
               TransferError);
}

TEST(SampledWithFaults, SameSeedReplaysBitIdentically) {
  const cloud::S3Model s3;
  const OutputSegmentation seg = OutputSegmentation::per_block(1_GB, 50_MB, 0.2);
  cloud::FaultModel model;
  model.p_transfer_error = 0.2;
  model.p_transfer_corruption = 0.05;
  RetryPolicy policy;
  policy.max_attempts = 8;
  auto run = [&] {
    const cloud::FaultInjector faults(Rng(7), model);
    Rng rng(11);
    return retrieval_time_sampled_with_faults(seg, s3, faults, policy, "out",
                                              rng);
  };
  const SampledRetrieval first = run();
  const SampledRetrieval again = run();
  EXPECT_DOUBLE_EQ(first.total.value(), again.total.value());
  EXPECT_EQ(first.attempts, again.attempts);
  EXPECT_EQ(first.retries, again.retries);
  EXPECT_EQ(first.corruptions_detected, again.corruptions_detected);
}

}  // namespace
}  // namespace reshape::provision
