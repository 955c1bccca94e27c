// The observability master switch and the global recorder instances.
//
// Overhead contract (see DESIGN.md "Observability"):
//   * runtime-off (the default): every instrumented site pays exactly one
//     relaxed atomic load (`enabled()`) and branches away;
//   * compile-time-off (-DRESHAPE_OBS=OFF): `enabled()` is constexpr
//     false, so the instrumented blocks are dead code and the optimizer
//     deletes them — recording sites cost literally nothing.  The obs
//     library itself still builds and its types remain fully functional
//     (tests construct recorders directly), only the *global* sites are
//     compiled out.
//
// Recording never draws from any Rng stream and never perturbs simulated
// time, so enabling it cannot change a single reported number: traces and
// metrics are a pure projection of a run, not a participant in it.
#pragma once

#include <atomic>
#include <functional>
#include <string>

namespace reshape::obs {

class TraceRecorder;
class MetricsRegistry;

#ifdef RESHAPE_OBS_DISABLED
/// Compile-time-off build: recording sites are dead code.
constexpr bool compiled_in() { return false; }
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
constexpr bool compiled_in() { return true; }

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when recording is on (off by default).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);
#endif

/// The process-global trace recorder / metrics registry.  Both outlive
/// every library object and are safe to use from any thread.
[[nodiscard]] TraceRecorder& trace();
[[nodiscard]] MetricsRegistry& metrics();

/// Clears the global trace and zeroes the global metrics — the reset
/// point between two runs whose artifacts are compared byte-for-byte.
void reset();

/// The `--trace PATH` / `--metrics PATH` pair every binary accepts.
/// Exported traces are always in canonical order.
class Session {
 public:
  /// Consumes argv[i] and its value (advancing `i`) when argv[i] is one
  /// of the two flags; false otherwise, or when the value is missing.
  bool take(int argc, char** argv, int& i);
  /// True when `--trace` was given.
  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }
  /// reset -> enable -> `workload` -> disable, then write(); a no-op
  /// without flags.  Returns 2 when recording is compiled out.
  int record(const std::function<void()>& workload) const;
  /// Writes what the global recorders hold to the requested files.
  /// Returns 0, or 1 when a file cannot be written.
  int write() const;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace reshape::obs
