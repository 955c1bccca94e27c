// Straggler detection for the elastic campaign controller.
//
// At every epoch boundary the controller ingests one progress report per
// fleet slot and asks which slots are lagging badly enough to hedge with a
// speculative relaunch.  The estimator is the classic robust one: a slot is
// flagged when its normalized progress rate falls below
// median - 3 · 1.4826 · MAD (the MAD scaled to the normal-consistent sigma)
// *and* below 0.75 · median; fewer than three live slots flag nobody.  The
// second bar matters for the degenerate fleets a mean/stddev detector gets
// wrong: a fleet that is uniformly slow has MAD ~ 0 and must produce no
// flags (there is nobody better to copy the work to), and a single fast
// outlier must not drag the rest of the fleet under the bar.  The three
// constants are fixed in straggler.cpp; no caller tunes them.
//
// Reports carry an epoch sequence number; arrival out of epoch order is
// harmless (a slot's latest-seq report wins).  Flag order is deterministic
// (ascending slot), and a speculative race that finishes in an exact tie is
// resolved deterministically by (seq, slot).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace reshape::provision {

/// One per-slot progress observation, ingested at an epoch boundary.
struct ProgressReport {
  std::uint64_t slot = 0;  // stable fleet-slot index
  std::uint64_t seq = 0;   // epoch sequence number the report belongs to
  /// Normalized throughput (complexity-weighted bytes/s of effective
  /// progress); comparable across slots processing different units.
  double rate = 0.0;
};

/// Robust sample median (averaging the two middle order statistics).
/// Returns 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// Median absolute deviation around `med` (unscaled).
[[nodiscard]] double mad(std::span<const double> xs, double med);

class StragglerDetector {
 public:
  /// Ingests a report.  A report whose seq is older than the slot's
  /// current one is dropped, so reports arriving out of epoch order can
  /// never roll a slot's view backwards.
  void ingest(const ProgressReport& report);

  /// Drops a slot (it finished, failed, or was released).
  void forget(std::uint64_t slot);

  [[nodiscard]] std::size_t tracked() const { return latest_.size(); }

  /// Latest ingested report for a slot, or nullptr.
  [[nodiscard]] const ProgressReport* latest(std::uint64_t slot) const;

  /// Slots flagged as stragglers, ascending slot order.  Only reports with
  /// seq >= min_seq participate (stale slots neither flag nor skew the
  /// median).
  [[nodiscard]] std::vector<std::uint64_t> flag(
      std::uint64_t min_seq = 0) const;

 private:
  std::map<std::uint64_t, ProgressReport> latest_;  // keyed by slot
};

/// One contender in a speculative-relaunch race: the original attempt and
/// its hedge both hold a (seq, slot) identity — seq is the epoch the
/// attempt was launched in, so the original always carries the lower seq.
struct SpeculativeContender {
  std::uint64_t seq = 0;
  std::uint64_t slot = 0;
  Seconds finish{0.0};
};

/// The race winner: earlier finish wins; an exact finish-time tie is
/// resolved by ascending (seq, slot), so replays pick the same winner no
/// matter how the completion events were enumerated.
[[nodiscard]] const SpeculativeContender& speculative_winner(
    const SpeculativeContender& a, const SpeculativeContender& b);

}  // namespace reshape::provision
