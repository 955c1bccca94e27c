// Output-retrieval model.
//
// The paper's §1 motivates reshaping twice: less-segmented *input* runs
// faster, and the correspondingly less-segmented *output* is faster to
// retrieve — "a lower number of output files which results in a shorter
// retrieval time for the application results.  This, in turn, results in
// a shorter makespan."  This module quantifies that claim against the S3
// model: retrieval pays a per-object request latency plus volume over the
// transfer rate, so thousands of tiny result objects are dominated by
// request overhead while a few large merged objects run at line rate.
#pragma once

#include <cstdint>
#include <string>

#include "cloud/faults.hpp"
#include "cloud/s3.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace reshape::provision {

/// The shape of an application's result set.
struct OutputSegmentation {
  std::uint64_t object_count = 0;
  Bytes total_volume{0};

  /// Output of a run over the original corpus: one result object per
  /// input file, scaled by the app's output ratio.
  [[nodiscard]] static OutputSegmentation per_input_file(
      std::uint64_t input_files, Bytes input_volume, double output_ratio);

  /// Output of a run over a reshaped corpus: one result object per block.
  [[nodiscard]] static OutputSegmentation per_block(Bytes input_volume,
                                                    Bytes unit,
                                                    double output_ratio);
};

struct RetrievalEstimate {
  Seconds total{0.0};
  Seconds request_overhead{0.0};
  Seconds transfer{0.0};
};

/// Expected time to download the whole result set sequentially through
/// the S3 path (the paper's retrieval step).  Uses the model's means; for
/// a stochastic draw, use `retrieval_time_sampled`.
[[nodiscard]] RetrievalEstimate expected_retrieval_time(
    const OutputSegmentation& output, const cloud::S3Model& s3);

/// One stochastic retrieval (per-object latency draws).
[[nodiscard]] Seconds retrieval_time_sampled(const OutputSegmentation& output,
                                             const cloud::S3Model& s3,
                                             Rng& rng);

/// One stochastic retrieval through the data-plane fault layer.
struct SampledRetrieval {
  Seconds total{0.0};
  int attempts = 0;
  int retries = 0;
  Seconds retry_time{0.0};
  int corruptions_detected = 0;
};

/// Samples the retrieval of every result object through the retry engine
/// (fault streams keyed `"<prefix>/<i>"`).  Throws TransferError if any
/// object exhausts its attempt budget.  With the zero fault model this
/// consumes exactly the draws of `retrieval_time_sampled` and returns the
/// same total.
[[nodiscard]] SampledRetrieval retrieval_time_sampled_with_faults(
    const OutputSegmentation& output, const cloud::S3Model& s3,
    const cloud::FaultInjector& faults, const RetryPolicy& policy,
    const std::string& key_prefix, Rng& rng);

/// `parallel_streams` concurrent downloads: S3 serves them independently
/// (§1.1: "multiple instances can access this storage in parallel").
[[nodiscard]] Seconds parallel_retrieval_time(const OutputSegmentation& output,
                                              const cloud::S3Model& s3,
                                              std::uint64_t parallel_streams);

}  // namespace reshape::provision
