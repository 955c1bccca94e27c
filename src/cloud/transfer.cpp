#include "cloud/transfer.hpp"

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::cloud {

namespace {

/// The retry loop proper.
TransferOutcome run_attempts(const FaultInjector& faults, std::string_view key,
                             const RetryPolicy& policy,
                             const TransferChannel& channel, Rng& rng) {
  policy.validate();
  RESHAPE_REQUIRE(channel.success_time && channel.error_time,
                  "transfer channel needs both cost callbacks");
  const bool tracing = obs::enabled();
  const auto note_attempt = [&](TransferOutcome& out, Seconds begun,
                                Seconds cost, bool ok,
                                TransferErrorKind error) {
    if (!tracing) return;
    out.attempt_trace.push_back(TransferAttempt{begun, cost, error, ok});
  };
  TransferOutcome out;
  out.attempts = 0;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      const Seconds wait = policy.jittered_backoff(attempt - 1, rng);
      out.backoff += wait;
      out.time += wait;
    }
    ++out.attempts;
    const Seconds attempt_begun = out.time;
    const TransferFault fault =
        faults.draw_transfer_fault(key, static_cast<std::uint64_t>(attempt));
    switch (fault.kind) {
      case TransferFaultKind::kNone: {
        const Seconds t = channel.success_time(rng);
        out.time += t;
        out.final_attempt = t;
        out.ok = true;
        out.error = TransferErrorKind::kNone;
        note_attempt(out, attempt_begun, t, true, TransferErrorKind::kNone);
        return out;
      }
      case TransferFaultKind::kTransientError: {
        const Seconds t = channel.error_time(rng);
        out.time += t;
        ++out.transient_errors;
        out.error = TransferErrorKind::kTransientError;
        note_attempt(out, attempt_begun, t, false,
                     TransferErrorKind::kTransientError);
        break;
      }
      case TransferFaultKind::kStall: {
        const Seconds stalled = channel.success_time(rng) * fault.stall_factor;
        if (policy.attempt_timeout.value() > 0.0 &&
            stalled > policy.attempt_timeout) {
          // The watchdog cuts the stalled read at the timeout and retries.
          out.time += policy.attempt_timeout;
          ++out.timeouts;
          out.error = TransferErrorKind::kTimeout;
          note_attempt(out, attempt_begun, policy.attempt_timeout, false,
                       TransferErrorKind::kTimeout);
          break;
        }
        // No timeout configured: the stall is endured to completion.
        out.time += stalled;
        out.final_attempt = stalled;
        ++out.stalls;
        out.ok = true;
        out.error = TransferErrorKind::kNone;
        note_attempt(out, attempt_begun, stalled, true,
                     TransferErrorKind::kNone);
        return out;
      }
      case TransferFaultKind::kCorruption: {
        // The digest check rejects the payload: a full, wasted transfer.
        const Seconds t = channel.success_time(rng);
        out.time += t;
        ++out.corruptions_detected;
        out.error = TransferErrorKind::kCorruption;
        note_attempt(out, attempt_begun, t, false,
                     TransferErrorKind::kCorruption);
        break;
      }
    }
  }
  out.ok = false;
  return out;
}

/// Engine-level tallies for one finished logical transfer.
void record_transfer_metrics(const TransferOutcome& out) {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("transfer.count").add(1);
  if (out.attempts > 1) {
    m.counter("transfer.retries").add(
        static_cast<std::uint64_t>(out.attempts - 1));
  }
  if (out.transient_errors > 0) {
    m.counter("transfer.transient_errors").add(
        static_cast<std::uint64_t>(out.transient_errors));
  }
  if (out.timeouts > 0) {
    m.counter("transfer.timeouts").add(
        static_cast<std::uint64_t>(out.timeouts));
  }
  if (out.stalls > 0) {
    m.counter("transfer.stalls").add(static_cast<std::uint64_t>(out.stalls));
  }
  if (out.corruptions_detected > 0) {
    m.counter("transfer.corruptions_detected").add(
        static_cast<std::uint64_t>(out.corruptions_detected));
  }
  if (!out.ok) m.counter("transfer.failures").add(1);
  m.histogram("transfer.time",
              {0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0})
      .observe(out.time.value());
}

}  // namespace

TransferOutcome transfer_with_retries(const FaultInjector& faults,
                                      std::string_view key,
                                      const RetryPolicy& policy,
                                      const TransferChannel& channel,
                                      Rng& rng) {
  TransferOutcome out = run_attempts(faults, key, policy, channel, rng);
  record_transfer_metrics(out);
  return out;
}

void record_transfer_trace(std::uint32_t pid, std::uint32_t tid,
                           std::string_view name, Seconds start,
                           const TransferOutcome& outcome) {
  if (!obs::enabled() || outcome.attempt_trace.empty()) return;
  auto& tr = obs::trace();
  tr.complete(pid, tid, "transfer", name, start.value(),
              outcome.time.value(),
              {obs::arg("attempts", outcome.attempts),
               obs::arg("ok", outcome.ok),
               obs::arg("retry_overhead_s",
                        outcome.retry_overhead().value())});
  for (const TransferAttempt& a : outcome.attempt_trace) {
    tr.complete(pid, tid, "transfer", "attempt", (start + a.start).value(),
                a.duration.value(),
                {obs::arg("ok", a.ok),
                 obs::arg("error", to_string(a.error))});
  }
}

}  // namespace reshape::cloud
