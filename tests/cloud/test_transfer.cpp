// Fault-matrix tests for the data-plane retry engine: every injected
// transfer fault kind crossed with the policy knobs that react to it.
#include "cloud/transfer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace reshape::cloud {
namespace {

/// Fixed-cost channel: a clean attempt takes 10 s, a failed request 1 s.
TransferChannel fixed_channel() {
  return TransferChannel{[](Rng&) { return Seconds(10.0); },
                         [](Rng&) { return Seconds(1.0); }};
}

FaultInjector injector(FaultModel model, std::uint64_t seed = 11) {
  return FaultInjector(Rng(seed), model);
}

std::string keyed(const char* prefix, int k) {
  std::string key(prefix);
  key += std::to_string(k);
  return key;
}

TEST(TransferEngine, ZeroModelIsOneCleanAttempt) {
  const FaultInjector faults = injector(FaultModel{});
  Rng rng(1);
  const TransferOutcome out = transfer_with_retries(
      faults, "a", RetryPolicy{}, fixed_channel(), rng);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.time.value(), 10.0);
  EXPECT_DOUBLE_EQ(out.backoff.value(), 0.0);
  EXPECT_DOUBLE_EQ(out.retry_overhead().value(), 0.0);
  EXPECT_EQ(out.error, TransferErrorKind::kNone);
}

TEST(TransferEngine, ZeroModelMakesNoRngDraws) {
  // The bit-identity contract: with no transfer faults configured the
  // engine must not consume the caller's rng stream beyond what the
  // channel itself draws (here: nothing).
  const FaultInjector faults = injector(FaultModel{});
  Rng rng(5);
  const std::uint64_t before = Rng(5).next_u64();
  (void)transfer_with_retries(faults, "x", RetryPolicy{}, fixed_channel(), rng);
  EXPECT_EQ(rng.next_u64(), before);
}

TEST(TransferEngine, CertainTransientErrorBurnsTheExactBudget) {
  FaultModel model;
  model.p_transfer_error = 1.0;
  const FaultInjector faults = injector(model);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.jitter = 0.0;
  Rng rng(2);
  const TransferOutcome out =
      transfer_with_retries(faults, "k", policy, fixed_channel(), rng);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.transient_errors, 3);
  EXPECT_EQ(out.error, TransferErrorKind::kTransientError);
  // 3 failed requests (1 s each) + backoff(0) + backoff(1).
  EXPECT_DOUBLE_EQ(out.time.value(),
                   3.0 + policy.backoff(0).value() + policy.backoff(1).value());
}

TEST(TransferEngine, TransientErrorsRecoverWithinBudget) {
  FaultModel model;
  model.p_transfer_error = 0.4;
  const FaultInjector faults = injector(model);
  RetryPolicy policy;
  policy.max_attempts = 8;
  Rng rng(3);
  int recovered_with_retries = 0;
  for (int k = 0; k < 50; ++k) {
    const TransferOutcome out = transfer_with_retries(
        faults, keyed("obj-", k), policy, fixed_channel(), rng);
    ASSERT_TRUE(out.ok);
    if (out.attempts > 1) {
      ++recovered_with_retries;
      EXPECT_GT(out.retry_overhead().value(), 0.0);
    }
  }
  EXPECT_GT(recovered_with_retries, 5);  // p=0.4 must trip sometimes
}

TEST(TransferEngine, StallIsEnduredWithoutAWatchdog) {
  FaultModel model;
  model.p_transfer_stall = 1.0;
  model.transfer_stall_lo = 4.0;
  model.transfer_stall_hi = 4.0;  // deterministic factor
  const FaultInjector faults = injector(model);
  RetryPolicy policy;  // attempt_timeout = 0: endure
  Rng rng(4);
  const TransferOutcome out =
      transfer_with_retries(faults, "s", policy, fixed_channel(), rng);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.stalls, 1);
  EXPECT_DOUBLE_EQ(out.time.value(), 40.0);  // 10 s * factor 4
}

TEST(TransferEngine, WatchdogCutsTheStallAndRetries) {
  FaultModel model;
  model.p_transfer_stall = 1.0;
  model.transfer_stall_lo = 4.0;
  model.transfer_stall_hi = 4.0;
  const FaultInjector faults = injector(model);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.attempt_timeout = Seconds(15.0);  // < 40 s stalled read
  policy.jitter = 0.0;
  Rng rng(4);
  const TransferOutcome out =
      transfer_with_retries(faults, "s", policy, fixed_channel(), rng);
  EXPECT_FALSE(out.ok);  // every attempt stalls, every stall times out
  EXPECT_EQ(out.timeouts, 2);
  EXPECT_EQ(out.error, TransferErrorKind::kTimeout);
  // Two watchdog windows + one backoff.
  EXPECT_DOUBLE_EQ(out.time.value(), 30.0 + policy.backoff(0).value());
}

TEST(TransferEngine, CorruptionIsAlwaysDetected) {
  // Every attempt's payload is digest-checked: a corrupt payload is never
  // delivered, it costs a full transfer and is retried.
  FaultModel model;
  model.p_transfer_corruption = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.jitter = 0.0;
  const FaultInjector faults = injector(model);
  Rng rng(6);
  const TransferOutcome out =
      transfer_with_retries(faults, "c", policy, fixed_channel(), rng);
  EXPECT_FALSE(out.ok);  // both payloads corrupt, both detected
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.corruptions_detected, 2);
  EXPECT_EQ(out.error, TransferErrorKind::kCorruption);
  // Two wasted full transfers (10 s each) + one backoff.
  EXPECT_DOUBLE_EQ(out.time.value(), 20.0 + policy.backoff(0).value());
}

TEST(TransferEngine, SameSeedReplaysBitIdentically) {
  FaultModel model;
  model.p_transfer_error = 0.3;
  model.p_transfer_stall = 0.2;
  model.p_transfer_corruption = 0.1;
  RetryPolicy policy;
  policy.max_attempts = 6;

  auto run = [&] {
    const FaultInjector faults = injector(model, 123);
    Rng rng(9);
    std::vector<TransferOutcome> outs;
    for (int k = 0; k < 20; ++k) {
      outs.push_back(transfer_with_retries(faults, keyed("o", k), policy,
                                           fixed_channel(), rng));
    }
    return outs;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_DOUBLE_EQ(a[i].time.value(), b[i].time.value());
    EXPECT_EQ(a[i].transient_errors, b[i].transient_errors);
    EXPECT_EQ(a[i].stalls, b[i].stalls);
    EXPECT_EQ(a[i].corruptions_detected, b[i].corruptions_detected);
  }
}

TEST(TransferEngine, DistinctKeysSeeIndependentFaultHistories) {
  FaultModel model;
  model.p_transfer_error = 0.5;
  const FaultInjector faults = injector(model);
  RetryPolicy policy;
  policy.max_attempts = 10;
  Rng rng(1);
  bool attempts_differ = false;
  int prev = -1;
  for (int k = 0; k < 30; ++k) {
    const TransferOutcome out = transfer_with_retries(
        faults, keyed("key-", k), policy, fixed_channel(), rng);
    if (prev >= 0 && out.attempts != prev) attempts_differ = true;
    prev = out.attempts;
  }
  EXPECT_TRUE(attempts_differ);
}

TEST(FaultModelValidation, RejectsBadTransferParameters) {
  {
    FaultModel model;
    model.p_transfer_error = 0.7;
    model.p_transfer_stall = 0.4;  // sum > 1
    EXPECT_THROW((void)FaultInjector(Rng(1), model), Error);
  }
  {
    FaultModel model;
    model.p_transfer_stall = 0.1;
    model.transfer_stall_lo = 0.5;  // would speed the transfer up
    EXPECT_THROW((void)FaultInjector(Rng(1), model), Error);
  }
  {
    FaultModel model;
    model.p_transfer_corruption = -0.1;
    EXPECT_THROW((void)FaultInjector(Rng(1), model), Error);
  }
}

}  // namespace
}  // namespace reshape::cloud
