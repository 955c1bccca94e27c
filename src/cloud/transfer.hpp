// The data-plane retry engine.
//
// One logical transfer (an instance's staging, one S3 result download) is
// executed as a sequence of attempts under a RetryPolicy.  Each attempt's
// fate is an injected TransferFault drawn purely from (injector seed, key,
// attempt), so any faulty scenario replays bit-identically; the time of
// each attempt comes from the caller's channel model, drawn from the
// caller's rng stream.  With the zero fault model the engine performs
// exactly one attempt and exactly the draws the un-retried code path would
// have made, keeping every existing report byte-identical.  Every
// attempt's payload is checked against its block digest, so silent
// corruption always surfaces as a detected, retried error.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "cloud/faults.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace reshape::cloud {

/// Per-attempt cost model of the underlying channel.
struct TransferChannel {
  /// Wall time of one fault-free attempt (latency + volume over rate).
  std::function<Seconds(Rng&)> success_time;
  /// Wall time burned by an attempt that dies with a transient error
  /// (typically one request latency, no payload movement).
  std::function<Seconds(Rng&)> error_time;
};

/// One attempt of a transfer, kept only while trace recording is on so a
/// caller that knows the transfer's sim-time start can emit per-attempt
/// child spans.  Offsets are relative to the transfer's start.
struct TransferAttempt {
  Seconds start{0.0};     // when the attempt began (after any backoff)
  Seconds duration{0.0};  // wall time the attempt itself consumed
  TransferErrorKind error = TransferErrorKind::kNone;
  bool ok = false;
};

/// Outcome of one logical transfer across all of its attempts.
struct TransferOutcome {
  bool ok = true;
  /// Last error observed when !ok (the budget was exhausted on it).
  TransferErrorKind error = TransferErrorKind::kNone;
  int attempts = 1;
  Seconds time{0.0};           // total wall time: attempts + backoff
  Seconds backoff{0.0};        // waiting time included in `time`
  Seconds final_attempt{0.0};  // cost of the attempt that succeeded
  int transient_errors = 0;
  int timeouts = 0;
  int stalls = 0;  // stalls endured to completion (no timeout configured)
  int corruptions_detected = 0;
  /// Per-attempt record, populated only while obs recording is enabled
  /// (empty otherwise — the zero-overhead contract).
  std::vector<TransferAttempt> attempt_trace;

  /// Time spent beyond the winning attempt: failed attempts + backoff.
  [[nodiscard]] Seconds retry_overhead() const {
    return time - final_attempt;
  }
};

/// Runs one transfer under the policy.  `key` names the transfer for the
/// injector's pure fault draws — distinct logical transfers must use
/// distinct keys or they will share a fault history.
[[nodiscard]] TransferOutcome transfer_with_retries(
    const FaultInjector& faults, std::string_view key,
    const RetryPolicy& policy, const TransferChannel& channel, Rng& rng);

/// Emits the trace spans for one finished transfer: a parent span over
/// the whole [start, start + outcome.time] window plus one child span per
/// recorded attempt.  The retry engine has no notion of sim time — callers
/// own the clock, so they supply the start.  No-op when recording is off or
/// no attempts were recorded.
void record_transfer_trace(std::uint32_t pid, std::uint32_t tid,
                           std::string_view name, Seconds start,
                           const TransferOutcome& outcome);

}  // namespace reshape::cloud
