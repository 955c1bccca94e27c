#include "obs/profile/doctor.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace reshape::obs::profile {

namespace {

constexpr std::string_view kDecisionNames[] = {
    "epoch",         "straggler-flagged",   "hedge-launched",
    "race-resolved", "race-contender-lost", "crash",
    "zone-suspect",  "cross-az-move",       "degrade",
    "unit-shed",     "unit-abandoned",
};

[[nodiscard]] bool is_decision(const std::string& name) {
  for (const std::string_view d : kDecisionNames) {
    if (name == d) return true;
  }
  return false;
}

[[nodiscard]] std::string fmt(const char* format, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

[[nodiscard]] std::string sec(std::int64_t us) {
  return fmt("%.3fs", static_cast<double>(us) / 1e6);
}

[[nodiscard]] std::string pct(std::int64_t part, std::int64_t whole) {
  return fmt("%.1f%%",
             whole > 0 ? 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole)
                       : 0.0);
}

[[nodiscard]] std::string dollars(double v) { return fmt("$%.4f", v); }

/// "key=value ..." in recorded arg order; string args decoded.
[[nodiscard]] std::string detail_of(const std::vector<TraceArg>& args) {
  std::string out;
  for (const TraceArg& a : args) {
    if (!out.empty()) out += ' ';
    out += a.key;
    out += '=';
    if (const auto s = arg_string(args, a.key)) {
      out += *s;
    } else {
      out += a.json;
    }
  }
  return out;
}

[[nodiscard]] std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

[[nodiscard]] std::string json_seconds(std::int64_t us) {
  return fmt("%.6f", static_cast<double>(us) / 1e6);
}

}  // namespace

DoctorReport diagnose(const TraceIndex& index,
                      const std::vector<InstanceCostRecord>& records,
                      const DoctorOptions& options) {
  DoctorReport report;
  report.deadline_us = options.deadline_us;
  report.path = extract_critical_path(index, options.path);
  report.cost = attribute_costs(index, records);
  report.dominant_phase = std::string(to_string(report.path.dominant));

  EventQuery controller;
  controller.pid = options.path.pid;
  controller.cat = "controller";
  for (const Instant* instant : index.query_instants(controller)) {
    if (!is_decision(instant->name)) continue;
    Decision d;
    d.ts_us = instant->ts_us;
    d.name = instant->name;
    d.tid = instant->tid;
    d.detail = detail_of(instant->args);
    report.decisions.push_back(std::move(d));
  }
  std::sort(report.decisions.begin(), report.decisions.end(),
            [](const Decision& a, const Decision& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.name != b.name) return a.name < b.name;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.detail < b.detail;
            });
  for (const Decision& d : report.decisions) {
    if (d.name == "degrade" && report.degradation.empty()) {
      if (const auto at = d.detail.find("policy=");
          at != std::string::npos) {
        const auto end = d.detail.find(' ', at);
        report.degradation = d.detail.substr(
            at + 7, end == std::string::npos ? std::string::npos
                                             : end - (at + 7));
      }
    }
  }

  for (const UnitProfile& unit : report.path.units) {
    switch (unit.resolution) {
      case UnitResolution::kDone: ++report.done; break;
      case UnitResolution::kShed: ++report.shed; break;
      case UnitResolution::kAbandoned: ++report.abandoned; break;
      case UnitResolution::kUnresolved: ++report.unresolved; break;
    }
    const bool late = report.deadline_us &&
                      unit.resolved_at_us > *report.deadline_us;
    if (unit.resolution == UnitResolution::kDone && !late) continue;
    MissExplanation miss;
    miss.unit = unit.unit;
    miss.resolution = unit.resolution;
    miss.blame = unit.blame;
    miss.total_us = unit.total_us();
    miss.blame_us = unit.phase_us[static_cast<std::size_t>(unit.blame)];
    const std::string outcome =
        unit.resolution == UnitResolution::kDone
            ? "done late"
            : std::string(to_string(unit.resolution));
    miss.verdict = fmt("unit %u: %s at %s", miss.unit, outcome.c_str(),
                       sec(unit.resolved_at_us).c_str()) +
                   " — blame " + std::string(to_string(miss.blame)) + " (" +
                   pct(miss.blame_us, miss.total_us) + " of " +
                   sec(miss.total_us) + ")" +
                   fmt("; attempts=%zu crashes=%zu hedges=%zu",
                       unit.attempts, unit.crashes, unit.hedges);
    report.misses.push_back(std::move(miss));
  }
  return report;
}

std::string DoctorReport::to_text() const {
  std::string out;
  out += "campaign doctor\n===============\n";
  out += "window: " + sec(path.begin_us) + " .. " + sec(path.end_us) +
         " (makespan " + sec(path.end_us - path.begin_us) + ")\n";
  out += fmt("units: %zu (done %zu, shed %zu, abandoned %zu, "
             "unresolved %zu)\n",
             path.units.size(), done, shed, abandoned, unresolved);
  if (deadline_us) {
    out += "deadline: " + sec(*deadline_us) +
           fmt(" — missed %zu of %zu\n", misses.size(), path.units.size());
  } else {
    out += fmt("deadline: none — unresolved or failed units: %zu\n",
               misses.size());
  }

  out += "\nmakespan blame\n";
  std::int64_t total = 0;
  for (const std::int64_t v : path.phase_us) total += v;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    out += fmt("  %-12s %14s  %6s\n",
               std::string(to_string(static_cast<Phase>(p))).c_str(),
               sec(path.phase_us[p]).c_str(),
               pct(path.phase_us[p], total).c_str());
  }
  out += "dominant phase: " + dominant_phase + "\n";
  out += "hedge duplicate time: " + sec(path.hedge_duplicate_us) + "\n";

  out += fmt("\ncontroller decisions (%zu)\n", decisions.size());
  constexpr std::size_t kMaxListed = 60;
  for (std::size_t i = 0; i < decisions.size() && i < kMaxListed; ++i) {
    const Decision& d = decisions[i];
    out += "  t=" + sec(d.ts_us) + fmt("  %-20s ", d.name.c_str()) +
           d.detail + "\n";
  }
  if (decisions.size() > kMaxListed) {
    out += fmt("  (+%zu more)\n", decisions.size() - kMaxListed);
  }
  out += "degradation: " + (degradation.empty() ? "none" : degradation) +
         "\n";

  out += "\ncost\n";
  out += "  total " + dollars(cost.total) +
         fmt(" over %zu instances (%zu failed, %zu free failed boots)\n",
             cost.instances.size(), cost.failed_instances,
             cost.free_failed_boots);
  out += "  productive " + dollars(cost.productive) + " | hedge-lost " +
         dollars(cost.hedge_lost) + " | crashed " + dollars(cost.crashed) +
         " | idle " + dollars(cost.idle) + " (failed idle " +
         dollars(cost.idle_failed) + ")\n";

  out += fmt("\nmissed deadlines (%zu)\n", misses.size());
  for (const MissExplanation& miss : misses) {
    out += "  " + miss.verdict + "\n";
  }
  return out;
}

std::string DoctorReport::to_json() const {
  std::string out = "{\n";
  out += "  \"window\": {\"begin_s\": " + json_seconds(path.begin_us) +
         ", \"end_s\": " + json_seconds(path.end_us) + "},\n";
  out += fmt("  \"units\": {\"total\": %zu, \"done\": %zu, \"shed\": %zu, "
             "\"abandoned\": %zu, \"unresolved\": %zu},\n",
             path.units.size(), done, shed, abandoned, unresolved);
  out += "  \"deadline_s\": " +
         (deadline_us ? json_seconds(*deadline_us) : std::string("null")) +
         ",\n";
  out += fmt("  \"missed\": %zu,\n", misses.size());
  out += "  \"dominant_phase\": " + json_escaped(dominant_phase) + ",\n";
  out += "  \"degradation\": " + json_escaped(degradation) + ",\n";
  out += "  \"phases\": {";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (p > 0) out += ", ";
    out += json_escaped(to_string(static_cast<Phase>(p))) + ": " +
           json_seconds(path.phase_us[p]);
  }
  out += "},\n";
  out += "  \"hedge_duplicate_s\": " +
         json_seconds(path.hedge_duplicate_us) + ",\n";
  out += "  \"decisions\": [";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"t_s\": " + json_seconds(d.ts_us) + ", \"name\": " +
           json_escaped(d.name) + fmt(", \"tid\": %u, ", d.tid) +
           "\"detail\": " + json_escaped(d.detail) + "}";
  }
  out += decisions.empty() ? "],\n" : "\n  ],\n";
  out += "  \"cost\": {";
  out += fmt("\"total\": %.6f, \"productive\": %.6f, \"hedge_lost\": %.6f, "
             "\"crashed\": %.6f, \"idle\": %.6f, \"idle_failed\": %.6f, "
             "\"failed_instances\": %zu, \"free_failed_boots\": %zu, ",
             cost.total, cost.productive, cost.hedge_lost, cost.crashed,
             cost.idle, cost.idle_failed, cost.failed_instances,
             cost.free_failed_boots);
  out += "\"units\": [";
  for (std::size_t i = 0; i < cost.units.size(); ++i) {
    const UnitCost& u = cost.units[i];
    if (i > 0) out += ", ";
    out += fmt("{\"unit\": %u, \"dollars\": %.6f, \"productive\": %.6f, "
               "\"hedge_lost\": %.6f, \"crashed\": %.6f}",
               u.unit, u.dollars, u.productive, u.hedge_lost, u.crashed);
  }
  out += "]},\n";
  out += "  \"misses\": [";
  for (std::size_t i = 0; i < misses.size(); ++i) {
    const MissExplanation& miss = misses[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += fmt("{\"unit\": %u, ", miss.unit);
    out += "\"resolution\": " +
           json_escaped(to_string(miss.resolution)) +
           ", \"blame\": " + json_escaped(to_string(miss.blame)) +
           ", \"blame_s\": " + json_seconds(miss.blame_us) +
           ", \"total_s\": " + json_seconds(miss.total_us) +
           ", \"verdict\": " + json_escaped(miss.verdict) + "}";
  }
  out += misses.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace reshape::obs::profile
