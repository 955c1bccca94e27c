#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/recorder.hpp"

namespace reshape::obs {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::int64_t to_trace_us(double seconds) {
  return std::llround(seconds * 1e6);
}

TraceArg arg(std::string key, std::string_view value) {
  return TraceArg{std::move(key), quoted(value)};
}
TraceArg arg(std::string key, const char* value) {
  return arg(std::move(key), std::string_view(value));
}
TraceArg arg(std::string key, std::int64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}
TraceArg arg(std::string key, std::uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}
TraceArg arg(std::string key, int value) {
  return TraceArg{std::move(key), std::to_string(value)};
}
TraceArg arg(std::string key, double value) {
  return TraceArg{std::move(key), number(value)};
}
TraceArg arg(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid,
                             std::string_view cat, std::string_view name,
                             double start_s, double duration_s,
                             std::vector<TraceArg> args) {
  TraceEvent e;
  e.ph = 'X';
  e.pid = pid;
  e.tid = tid;
  e.ts_us = to_trace_us(start_s);
  e.dur_us = to_trace_us(duration_s);
  if (e.dur_us < 0) e.dur_us = 0;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  const std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(std::uint32_t pid, std::uint32_t tid,
                            std::string_view cat, std::string_view name,
                            double at_s, std::vector<TraceArg> args) {
  TraceEvent e;
  e.ph = 'i';
  e.pid = pid;
  e.tid = tid;
  e.ts_us = to_trace_us(at_s);
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  const std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::thread_name(std::uint32_t pid, std::uint32_t tid,
                                std::string_view name) {
  TraceEvent e;
  e.ph = 'M';
  e.pid = pid;
  e.tid = tid;
  e.name = "thread_name";
  e.args.push_back(arg("name", name));
  const std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::set_wall_capture(bool on) {
  const std::lock_guard lock(mu_);
  if (on && !wall_capture_) {
    wall_base_ = std::chrono::steady_clock::now();
  }
  wall_capture_ = on;
}

bool TraceRecorder::wall_capture() const {
  const std::lock_guard lock(mu_);
  return wall_capture_;
}

std::uint32_t TraceRecorder::wall_tid_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = wall_tids_.find(id);
  if (it != wall_tids_.end()) return it->second;
  const std::uint32_t tid = next_wall_tid_++;
  wall_tids_.emplace(id, tid);
  return tid;
}

void TraceRecorder::wall_complete(std::string_view cat, std::string_view name,
                                  std::chrono::steady_clock::time_point start,
                                  std::chrono::steady_clock::time_point end,
                                  std::vector<TraceArg> args) {
  const std::lock_guard lock(mu_);
  if (!wall_capture_) return;
  TraceEvent e;
  e.ph = 'X';
  e.pid = kPidWall;
  e.tid = wall_tid_locked();
  e.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                start - wall_base_)
                .count();
  e.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  if (e.ts_us < 0) e.ts_us = 0;
  if (e.dur_us < 0) e.dur_us = 0;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

std::size_t TraceRecorder::event_count() const {
  const std::lock_guard lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  const std::lock_guard lock(mu_);
  return events_;
}

namespace {

/// Content ordering for canonical export: timestamp first, then track and
/// the rendered payload.  Two events that compare equal are byte-identical
/// in the output, so any arrival interleaving of them renders the same.
bool content_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.pid != b.pid) return a.pid < b.pid;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.ph != b.ph) return a.ph < b.ph;
  if (a.dur_us != b.dur_us) return a.dur_us < b.dur_us;
  if (a.cat != b.cat) return a.cat < b.cat;
  if (a.name != b.name) return a.name < b.name;
  const std::size_t n = std::min(a.args.size(), b.args.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.args[i].key != b.args[i].key) return a.args[i].key < b.args[i].key;
    if (a.args[i].json != b.args[i].json) {
      return a.args[i].json < b.args[i].json;
    }
  }
  return a.args.size() < b.args.size();
}

}  // namespace

std::string TraceRecorder::to_chrome_json(bool canonical) const {
  // Snapshot under the lock, render outside it: a hot-path writer blocks
  // for one vector copy, never for the (much larger) JSON render.
  std::vector<TraceEvent> events = snapshot();
  if (canonical) {
    std::stable_sort(events.begin(), events.end(), content_less);
  }
  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\"traceEvents\":[\n";

  // Named track groups first (metadata), then the recorded events in
  // insertion order.
  constexpr std::pair<std::uint32_t, const char*> kProcesses[] = {
      {kPidCloud, "cloud"},
      {kPidExecutor, "executor"},
      {kPidMapReduce, "mapreduce"},
      {kPidWall, "wall-clock"},
  };
  bool first = true;
  for (const auto& [pid, name] : kProcesses) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
           name + "\"}}";
  }

  for (const TraceEvent& e : events) {
    out += ",\n{\"ph\":\"";
    out.push_back(e.ph);
    out += "\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid);
    if (e.ph != 'M') {
      out += ",\"ts\":" + std::to_string(e.ts_us);
    }
    if (e.ph == 'X') {
      out += ",\"dur\":" + std::to_string(e.dur_us);
    }
    if (e.ph == 'i') {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (!e.cat.empty()) {
      out += ",\"cat\":" + quoted(e.cat);
    }
    out += ",\"name\":" + quoted(e.name);
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ",";
        out += quoted(e.args[i].key) + ":" + e.args[i].json;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  const std::string json = to_chrome_json(/*canonical=*/true);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

void TraceRecorder::clear() {
  const std::lock_guard lock(mu_);
  events_.clear();
}

WallSpan::WallSpan(std::string_view cat, std::string_view name) {
  if (!enabled()) return;
  if (!trace().wall_capture()) return;
  active_ = true;
  cat_ = cat;
  name_ = name;
  start_ = std::chrono::steady_clock::now();
}

WallSpan::WallSpan(std::string_view cat, std::string_view name,
                   std::vector<TraceArg> args) {
  if (!enabled()) return;
  if (!trace().wall_capture()) return;
  active_ = true;
  cat_ = cat;
  name_ = name;
  args_ = std::move(args);
  start_ = std::chrono::steady_clock::now();
}

WallSpan::~WallSpan() {
  if (!active_) return;
  trace().wall_complete(cat_, name_, start_,
                        std::chrono::steady_clock::now(), std::move(args_));
}

}  // namespace reshape::obs
