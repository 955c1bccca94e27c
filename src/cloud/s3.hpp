// Simple Storage Service (S3) path model.
//
// From the paper's §1.1: objects accessible from many instances in
// parallel, with latency that is low but higher and more variable than
// EBS.  Result retrieval (provision/retrieval.hpp) prices its per-object
// downloads with this model, and the elastic controller its restages.
#pragma once

#include "common/units.hpp"

namespace reshape::cloud {

/// Latency/throughput character of the S3 path.
struct S3Model {
  Seconds request_latency_mean{0.08};
  Seconds request_latency_stddev{0.05};
  Rate transfer_rate = Rate::megabytes_per_second(25.0);
  /// Relative stddev of the per-transfer throughput ("more variable" than
  /// EBS per §1.1).
  double rate_jitter = 0.20;
};

}  // namespace reshape::cloud
