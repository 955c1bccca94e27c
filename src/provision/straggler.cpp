#include "provision/straggler.hpp"

#include <algorithm>
#include <cmath>

namespace reshape::provision {

namespace {
/// MAD-to-sigma consistency constant for the normal distribution.
constexpr double kMadSigma = 1.4826;
/// Flag below median - kMadK · kMadSigma · MAD ...
constexpr double kMadK = 3.0;
/// ... and only when also below median · (1 - kMinRelativeGap): the guard
/// that keeps a uniformly slow (MAD ~ 0) fleet flag-free.
constexpr double kMinRelativeGap = 0.25;
/// Fewer live slots than this and nothing is flagged (no robust scale).
constexpr std::size_t kMinPopulation = 3;
}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double mad(std::span<const double> xs, double med) {
  if (xs.empty()) return 0.0;
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (const double x : xs) deviations.push_back(std::abs(x - med));
  return median(std::move(deviations));
}

void StragglerDetector::ingest(const ProgressReport& report) {
  const auto [it, inserted] = latest_.try_emplace(report.slot, report);
  if (inserted) return;
  // Out-of-epoch-order arrival: keep the newest view of the slot.
  if (report.seq >= it->second.seq) it->second = report;
}

void StragglerDetector::forget(std::uint64_t slot) { latest_.erase(slot); }

const ProgressReport* StragglerDetector::latest(std::uint64_t slot) const {
  const auto it = latest_.find(slot);
  return it == latest_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> StragglerDetector::flag(
    std::uint64_t min_seq) const {
  std::vector<const ProgressReport*> live;
  live.reserve(latest_.size());
  for (const auto& [slot, report] : latest_) {
    if (report.seq >= min_seq) live.push_back(&report);
  }
  std::vector<std::uint64_t> flagged;
  if (live.size() < kMinPopulation) return flagged;

  std::vector<double> rates;
  rates.reserve(live.size());
  for (const ProgressReport* r : live) rates.push_back(r->rate);
  const double med = median(rates);
  const double scale = kMadSigma * mad(rates, med);
  const double robust_bar = med - kMadK * scale;
  const double gap_bar = med * (1.0 - kMinRelativeGap);

  // Both bars must be undercut: the robust one places the slot far outside
  // the fleet's own spread, the gap one demands the lag be material.  A
  // uniformly slow fleet (MAD ~ 0, everyone at the median) clears neither.
  for (const ProgressReport* r : live) {  // map order: ascending slot
    if (r->rate < robust_bar && r->rate < gap_bar) flagged.push_back(r->slot);
  }
  return flagged;
}

const SpeculativeContender& speculative_winner(const SpeculativeContender& a,
                                               const SpeculativeContender& b) {
  if (a.finish.value() != b.finish.value()) {
    return a.finish.value() < b.finish.value() ? a : b;
  }
  if (a.seq != b.seq) return a.seq < b.seq ? a : b;
  return a.slot <= b.slot ? a : b;
}

}  // namespace reshape::provision
