#include "obs/recorder.hpp"

#include <cstdio>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace reshape::obs {

#ifndef RESHAPE_OBS_DISABLED
namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
#endif

TraceRecorder& trace() {
  static TraceRecorder recorder;
  return recorder;
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

void reset() {
  trace().clear();
  metrics().reset();
}

bool Session::take(int argc, char** argv, int& i) {
  std::string* into = nullptr;
  if (std::string_view(argv[i]) == "--trace") into = &trace_path_;
  if (std::string_view(argv[i]) == "--metrics") into = &metrics_path_;
  if (into == nullptr || i + 1 >= argc) return false;
  *into = argv[++i];
  return true;
}

int Session::record(const std::function<void()>& workload) const {
  if (trace_path_.empty() && metrics_path_.empty()) return 0;
  if (!compiled_in()) {
    std::fprintf(stderr,
                 "--trace/--metrics need a build with RESHAPE_OBS=ON\n");
    return 2;
  }
  reset();
  set_enabled(true);
  workload();
  set_enabled(false);
  return write();
}

int Session::write() const {
  const auto cannot_write = [](const std::string& path) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  };
  if (!trace_path_.empty()) {
    if (!trace().write_chrome_json(trace_path_)) {
      return cannot_write(trace_path_);
    }
    std::printf("trace: %zu events -> %s (open in Perfetto)\n",
                trace().event_count(), trace_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    if (!metrics().write_json(metrics_path_)) {
      return cannot_write(metrics_path_);
    }
    std::printf("metrics snapshot -> %s\n", metrics_path_.c_str());
  }
  return 0;
}

}  // namespace reshape::obs
