// Elastic Block Store volumes.
//
// Semantics from the paper's §1.1: raw block devices that persist beyond an
// instance's life, attachable to at most one instance at a time, with
// consistent performance from instances in the same availability zone.
//
// The one behaviour that matters for the evaluation is *placement
// sensitivity* (§5.1, Fig. 5): data sets stored at different locations on
// the same logical volume showed repeatable access-time differences of up
// to a factor of 3.  We model a volume as a sequence of fixed-size backing
// segments, each with a latency factor drawn once (pure function of volume
// id and segment index): most segments are clean, a minority are slow.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/types.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace reshape::cloud {

/// Placement-model parameters.
struct EbsPlacementModel {
  Bytes segment_size = 256_MB;
  double p_slow_segment = 0.10;
  double slow_factor_lo = 1.6;
  double slow_factor_hi = 3.0;
  /// Throughput ceiling of the EBS network path, before placement penalty.
  Rate base_rate = Rate::megabytes_per_second(70.0);
};

/// A persistent EBS volume.
class EbsVolume {
 public:
  EbsVolume(VolumeId id, Bytes capacity, AvailabilityZone az,
            const EbsPlacementModel& model, const Rng& placement_stream);

  [[nodiscard]] VolumeId id() const { return id_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] const AvailabilityZone& zone() const { return az_; }

  [[nodiscard]] bool attached() const { return attached_to_.valid(); }
  [[nodiscard]] InstanceId attached_to() const { return attached_to_; }

  /// Records attachment; enforces the one-instance-at-a-time rule.
  void attach(InstanceId instance);
  void detach();

  /// Amount of data currently staged on the volume.
  [[nodiscard]] Bytes used() const { return used_; }

  /// Stages `volume` bytes, returning the placement offset of the staged
  /// extent.  Throws if capacity would be exceeded.
  [[nodiscard]] Bytes stage(Bytes volume);

  /// Mean latency factor (>= 1.0) over the extent [offset, offset+length).
  /// This is the repeatable placement penalty of Fig. 5.
  [[nodiscard]] double placement_factor(Bytes offset, Bytes length) const;

  /// Latency factor of one backing segment.
  [[nodiscard]] double segment_factor(std::uint64_t segment_index) const;

  [[nodiscard]] std::uint64_t segment_count() const;
  [[nodiscard]] const EbsPlacementModel& model() const { return model_; }

  /// Effective read rate through this volume for an extent, further capped
  /// by the instance's own I/O capability `instance_io`.
  [[nodiscard]] Rate effective_rate(Bytes offset, Bytes length,
                                    Rate instance_io) const;

  /// Registers a transient throughput-degradation episode (fault
  /// injection): reads during [start, end) are slowed by `factor`.
  void add_degradation(Seconds start, Seconds end, double factor);

  /// Throughput divisor active at `when` (1.0 outside any episode;
  /// overlapping episodes compound).
  [[nodiscard]] double degradation_factor(Seconds when) const;

 private:
  struct DegradationEpisode {
    Seconds start{0.0};
    Seconds end{0.0};
    double factor = 1.0;
  };

  VolumeId id_;
  Bytes capacity_;
  AvailabilityZone az_;
  EbsPlacementModel model_;
  Rng placement_stream_;
  InstanceId attached_to_{};
  Bytes used_{0};
  std::vector<DegradationEpisode> degradations_;
};

}  // namespace reshape::cloud
