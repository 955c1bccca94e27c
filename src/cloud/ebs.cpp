#include "cloud/ebs.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace reshape::cloud {

EbsVolume::EbsVolume(VolumeId id, Bytes capacity, AvailabilityZone az,
                     const EbsPlacementModel& model,
                     const Rng& placement_stream)
    : id_(id), capacity_(capacity), az_(az), model_(model),
      placement_stream_(placement_stream.split(id.value)) {
  RESHAPE_REQUIRE(capacity.count() > 0, "EBS volume needs nonzero capacity");
  RESHAPE_REQUIRE(model.segment_size.count() > 0,
                  "EBS segment size must be nonzero");
}

void EbsVolume::attach(InstanceId instance) {
  RESHAPE_REQUIRE(instance.valid(), "cannot attach to an invalid instance");
  RESHAPE_REQUIRE(!attached(),
                  "EBS volume is already attached to another instance");
  attached_to_ = instance;
}

void EbsVolume::detach() {
  RESHAPE_REQUIRE(attached(), "EBS volume is not attached");
  attached_to_ = InstanceId{};
}

Bytes EbsVolume::stage(Bytes volume) {
  RESHAPE_REQUIRE(used_ + volume <= capacity_,
                  "staging would exceed EBS volume capacity");
  const Bytes offset = used_;
  used_ += volume;
  return offset;
}

std::uint64_t EbsVolume::segment_count() const {
  const auto seg = model_.segment_size.count();
  return (capacity_.count() + seg - 1) / seg;
}

double EbsVolume::segment_factor(std::uint64_t segment_index) const {
  // Pure function of (volume stream, segment index): repeatable, which is
  // what distinguishes placement penalties from transient contention.
  Rng rng = placement_stream_.split(segment_index);
  if (rng.uniform() < model_.p_slow_segment) {
    return rng.uniform(model_.slow_factor_lo, model_.slow_factor_hi);
  }
  return 1.0;
}

double EbsVolume::placement_factor(Bytes offset, Bytes length) const {
  if (length.count() == 0) return 1.0;
  RESHAPE_REQUIRE(offset + length <= capacity_,
                  "extent exceeds volume capacity");
  const std::uint64_t seg_size = model_.segment_size.count();
  const std::uint64_t first = offset.count() / seg_size;
  const std::uint64_t last = (offset.count() + length.count() - 1) / seg_size;
  // Weight each segment by the amount of the extent it holds.
  double weighted = 0.0;
  for (std::uint64_t s = first; s <= last; ++s) {
    const std::uint64_t seg_lo = s * seg_size;
    const std::uint64_t seg_hi = seg_lo + seg_size;
    const std::uint64_t lo = std::max(seg_lo, offset.count());
    const std::uint64_t hi =
        std::min(seg_hi, offset.count() + length.count());
    weighted += segment_factor(s) * static_cast<double>(hi - lo);
  }
  return weighted / length.as_double();
}

void EbsVolume::add_degradation(Seconds start, Seconds end, double factor) {
  RESHAPE_REQUIRE(factor >= 1.0, "degradation cannot speed the volume up");
  RESHAPE_REQUIRE(end >= start, "degradation episode ends before it starts");
  degradations_.push_back(DegradationEpisode{start, end, factor});
}

double EbsVolume::degradation_factor(Seconds when) const {
  double factor = 1.0;
  for (const DegradationEpisode& episode : degradations_) {
    if (when >= episode.start && when < episode.end) {
      factor *= episode.factor;
    }
  }
  return factor;
}

Rate EbsVolume::effective_rate(Bytes offset, Bytes length,
                               Rate instance_io) const {
  const double factor = placement_factor(offset, length);
  const Rate path = Rate(model_.base_rate.bytes_per_second() / factor);
  return std::min(path, instance_io);
}

}  // namespace reshape::cloud
