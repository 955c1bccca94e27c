// Deterministic trace recording with Chrome trace-event export.
//
// Spans and instants are stamped in *simulated* time: the recorder never
// reads a real clock for them, so a seeded run replays to a byte-identical
// trace no matter how host threads are scheduled.  Timestamps are integer
// microseconds (Chrome's native unit), converted from simulated seconds
// with one rounding rule, so no floating-point formatting enters the
// exported file.
//
// A second, clearly separated clock domain records *wall-clock* spans for
// the real parallel work (ThreadPool batches, the sharded merge).  Wall
// capture is off by default and must be opted into — wall spans are
// genuinely nondeterministic, so they are never mixed into a trace that is
// expected to replay bit-identically.
//
// The exported file loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one JSON object with a `traceEvents` array of
// complete ('X'), instant ('i') and metadata ('M') events.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace reshape::obs {

/// Track groups ("processes") of the exported trace.  Simulated-time
/// domains use instance/slot/worker indices as thread ids; the wall-clock
/// domain maps real threads to small stable ids.
inline constexpr std::uint32_t kPidCloud = 1;      // tid = instance id
inline constexpr std::uint32_t kPidExecutor = 2;   // tid = assignment index
inline constexpr std::uint32_t kPidMapReduce = 3;  // tid = worker index
inline constexpr std::uint32_t kPidWall = 4;       // tid = host thread

/// Simulated seconds -> integer trace microseconds (one rounding rule for
/// the whole trace, so equal sim times always collide exactly).
[[nodiscard]] std::int64_t to_trace_us(double seconds);

/// One key plus a pre-rendered JSON literal (quoted+escaped for strings,
/// bare for numbers).  Rendering at construction keeps the export loop
/// trivial and the byte stream deterministic.
struct TraceArg {
  std::string key;
  std::string json;
};

[[nodiscard]] TraceArg arg(std::string key, std::string_view value);
[[nodiscard]] TraceArg arg(std::string key, const char* value);
[[nodiscard]] TraceArg arg(std::string key, std::int64_t value);
[[nodiscard]] TraceArg arg(std::string key, std::uint64_t value);
[[nodiscard]] TraceArg arg(std::string key, int value);
[[nodiscard]] TraceArg arg(std::string key, double value);
[[nodiscard]] TraceArg arg(std::string key, bool value);

struct TraceEvent {
  char ph = 'X';  // 'X' complete, 'i' instant, 'M' metadata
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  // 'X' only
  std::string cat;
  std::string name;
  std::vector<TraceArg> args;
};

/// Append-only event sink.  Thread-safe; events keep insertion order,
/// which is deterministic for the sim-time domains (the simulation is
/// single-threaded and replays event order exactly).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A span [start, start + duration) in simulated seconds.
  void complete(std::uint32_t pid, std::uint32_t tid, std::string_view cat,
                std::string_view name, double start_s, double duration_s,
                std::vector<TraceArg> args = {});

  /// A point event at `at_s` simulated seconds.
  void instant(std::uint32_t pid, std::uint32_t tid, std::string_view cat,
               std::string_view name, double at_s,
               std::vector<TraceArg> args = {});

  /// Names a thread track (metadata event).
  void thread_name(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name);

  // -- wall-clock domain ---------------------------------------------------

  /// Enables wall-clock capture; the enable instant becomes time zero of
  /// the kPidWall tracks.  Off by default (wall spans are nondeterministic).
  void set_wall_capture(bool on);
  [[nodiscard]] bool wall_capture() const;

  /// Records a wall-clock span on the calling thread's kPidWall track.
  /// No-op unless wall capture is on.
  void wall_complete(std::string_view cat, std::string_view name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     std::vector<TraceArg> args = {});

  // -- export --------------------------------------------------------------

  [[nodiscard]] std::size_t event_count() const;

  /// Copies the recorded events out (taken under the lock, no JSON round
  /// trip).  This is the ingestion point for the in-memory profiler
  /// (obs::profile::TraceIndex) and the only moment export holds `mu_`:
  /// rendering happens on the copy, so hot-path writers never stall
  /// behind a multi-megabyte JSON render.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Renders the whole trace as Chrome trace-event JSON.  With
  /// `canonical` the events are ordered by content (timestamp, track,
  /// phase, name, args) instead of insertion order, which makes the
  /// exported bytes independent of cross-thread arrival order — the form
  /// a zone-sharded parallel run exports reproducibly.
  [[nodiscard]] std::string to_chrome_json(bool canonical = false) const;

  /// Writes the canonical JSON to `path` (every exported file is
  /// canonical); returns false if the file could not be opened.
  bool write_chrome_json(const std::string& path) const;

  /// Drops every recorded event (wall capture state is kept).
  void clear();

 private:
  std::uint32_t wall_tid_locked();

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  bool wall_capture_ = false;
  std::chrono::steady_clock::time_point wall_base_{};
  std::map<std::thread::id, std::uint32_t> wall_tids_;
  std::uint32_t next_wall_tid_ = 1;
};

/// RAII wall-clock span: starts timing at construction, records at
/// destruction.  Inert (two relaxed loads) unless recording is enabled
/// *and* the global recorder has wall capture on.
class WallSpan {
 public:
  WallSpan(std::string_view cat, std::string_view name);
  /// With args attached to the recorded span (e.g. a batch size).  Note
  /// the caller pays for rendering the args even when capture is off, so
  /// hot sites should keep them small or use the plain constructor.
  WallSpan(std::string_view cat, std::string_view name,
           std::vector<TraceArg> args);
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan();

 private:
  bool active_ = false;
  std::string cat_;
  std::string name_;
  std::vector<TraceArg> args_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace reshape::obs
