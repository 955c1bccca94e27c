// Shared pieces of the end-to-end benchmark driver: wall clock, order
// statistics, memory probes, the span tracer and the result record every
// family prints as its last stdout line.
//
// Spans are recorded here, around the driver's calls into the library's
// public functions; nothing inside the library is instrumented for it.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The CPUs the process may run on, as found at the first call (main.cpp
/// calls it before any pinning).
inline const cpu_set_t& process_cpus() {
  static const cpu_set_t all = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof s, &s);
    return s;
  }();
  return all;
}

/// Pins the calling thread to the next CPU of process_cpus(), round robin.
/// A single-threaded step otherwise stays on whichever CPU the scheduler
/// gave it, and on a shared host that CPU's speed depends for seconds on
/// what runs on its sibling hyperthread; rotating spreads a family's
/// samples over every CPU.  On the reference host the median of a fixed
/// loop over 4 s ranged 13 % across runs with rotation, 50 % without.
inline void pin_next_cpu() {
  static int next = 0;
  const cpu_set_t& all = process_cpus();
  const int count = CPU_COUNT(&all);
  if (count <= 1) return;
  int skip = next++ % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

/// Lets the calling thread, and the threads it starts, run on every CPU.
inline void unpin() {
  sched_setaffinity(0, sizeof(cpu_set_t), &process_cpus());
}

/// unpin() while in scope: multi-threaded steps must not share one CPU.
class Unpinned {
 public:
  Unpinned() {
    sched_getaffinity(0, sizeof saved_, &saved_);
    unpin();
  }
  ~Unpinned() { sched_setaffinity(0, sizeof saved_, &saved_); }
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;

 private:
  cpu_set_t saved_{};
};

/// Linear-interpolated quantile of `v` (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Current resident set size in MB (from /proc/self/statm).
inline double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * 4096.0 / 1e6;
}

/// Wall-clock spans kept in memory and written out when the run ends.
/// A span's self time is its duration minus the time its children cover;
/// spans nest by call order (one thread per tracer).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double child_s = 0.0;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  /// Runs fn() inside a span called `name` and returns its result.
  template <typename F>
  decltype(auto) span(const std::string& name, F&& fn) {
    if (!enabled_) return fn();
    const int id = open(name);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Sum of self seconds of every span called `name`.
  [[nodiscard]] double self_s(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += (sp.end - sp.start) - sp.child_s;
    }
    return s;
  }
  /// Sum of whole durations of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.end - sp.start;
    }
    return s;
  }

  /// Chrome-trace JSON ("X" events, microseconds).
  bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"traceEvents\": [\n");
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"parent\": %d, \"self_us\": %.3f}}%s\n",
                   s.name.c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, s.parent,
                   ((s.end - s.start) - s.child_s) * 1e6,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  int open(const std::string& name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    stack_.pop_back();
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_s += s.end - s.start;
    }
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What one family run reports.  Printed as one JSON object on the last
/// stdout line; run.py merges the families of a workload.
struct Result {
  std::string family;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  /// name -> (value, unit), in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layers;
  std::map<std::string, std::string> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, {value, unit}});
  }
  /// Records a failed output check (and counts it as a failed operation).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
      ++failed;
    }
  }

  void print() const {
    std::string s = "{\"family\": \"" + family + "\"";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"setup_s\": " + num(setup_s);
    s += ", \"peak_rss_mb\": " + num(peak_rss_mb);
    s += ", \"check_failures\": [";
    for (std::size_t i = 0; i < check_failures.size(); ++i) {
      s += (i ? ", \"" : "\"") + escape(check_failures[i]) + "\"";
    }
    s += "], \"metrics\": " + table(metrics);
    s += ", \"per_layer\": " + table(layers);
    s += ", \"info\": {";
    bool first = true;
    for (const auto& [k, v] : info) {
      s += (first ? "\"" : ", \"") + k + "\": \"" + escape(v) + "\"";
      first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }
  static std::string escape(const std::string& in) {
    std::string out;
    for (const char c : in) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n' ? ' ' : c);
    }
    return out;
  }
  static std::string table(
      const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
          rows) {
    std::string s = "{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      s += (i ? ", \"" : "\"") + rows[i].first + "\": {\"value\": " +
           num(rows[i].second.first) + ", \"unit\": \"" + rows[i].second.second +
           "\"}";
    }
    return s + "}";
  }
};

/// What a family is built with.
struct Options {
  bool full = false;  // full scale (the workload's own family) or probe
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out_dir = ".";
  std::string cli;  // path of reshape_cli (pipeline family only)
};

/// One family of work.  main.cpp sets every family up, then interleaves
/// their steps over the whole timed window, so each family's samples are
/// spread across the run instead of sitting in one stretch of it; the
/// reference host's speed drifts by up to 1.5x on a period of about a
/// second, and a median over samples spread across the run absorbs that.
class Family {
 public:
  virtual ~Family() = default;
  /// Inputs, warm-up and the family's setup_s (not timed as work).
  virtual void setup() = 0;
  /// One timed sample of the family's work.  In a traced run every other
  /// step records spans; the others are the untraced baseline.
  virtual void step(Tracer& tracer, bool traced) = 0;
  /// Number of steps taken so far.
  [[nodiscard]] virtual std::size_t steps() const = 0;
  /// One untimed step with the library's own obs recording on.
  virtual void record_obs() = 0;
  /// After the timed window: output checks and metrics.
  virtual Result finish(const Tracer& tracer) = 0;
};

std::unique_ptr<Family> make_pipeline(const Options& options);
std::unique_ptr<Family> make_campaign(const Options& options);
std::unique_ptr<Family> make_text(const Options& options);
std::unique_ptr<Family> make_serve(const Options& options);

}  // namespace perfbench
