#include "provision/retrieval.hpp"

#include <algorithm>
#include <string>

#include "cloud/transfer.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace reshape::provision {

OutputSegmentation OutputSegmentation::per_input_file(
    std::uint64_t input_files, Bytes input_volume, double output_ratio) {
  RESHAPE_REQUIRE(output_ratio >= 0.0, "output ratio must be nonnegative");
  OutputSegmentation seg;
  seg.object_count = input_files;
  seg.total_volume = Bytes(static_cast<std::uint64_t>(
      input_volume.as_double() * output_ratio));
  return seg;
}

OutputSegmentation OutputSegmentation::per_block(Bytes input_volume,
                                                 Bytes unit,
                                                 double output_ratio) {
  RESHAPE_REQUIRE(unit.count() > 0, "unit must be nonzero");
  OutputSegmentation seg;
  seg.object_count =
      (input_volume.count() + unit.count() - 1) / unit.count();
  seg.total_volume = Bytes(static_cast<std::uint64_t>(
      input_volume.as_double() * output_ratio));
  return seg;
}

RetrievalEstimate expected_retrieval_time(const OutputSegmentation& output,
                                          const cloud::S3Model& s3) {
  RetrievalEstimate estimate;
  estimate.request_overhead =
      Seconds(static_cast<double>(output.object_count) *
              s3.request_latency_mean.value());
  estimate.transfer = s3.transfer_rate.time_for(output.total_volume);
  estimate.total = estimate.request_overhead + estimate.transfer;
  return estimate;
}

namespace {
/// One S3 request's latency: the whole cost of an attempt that dies with
/// a transient error.
double request_latency(const cloud::S3Model& s3, Rng& rng) {
  return std::max(0.001, rng.normal(s3.request_latency_mean.value(),
                                    s3.request_latency_stddev.value()));
}

/// One clean download of a `bytes`-sized result object: a request latency
/// then the payload at a jittered rate.  Both samplers draw through here,
/// so they consume the same stream and agree bit for bit.
double object_time(const cloud::S3Model& s3, double bytes, Rng& rng) {
  const double latency = request_latency(s3, rng);
  const double rate_factor = std::max(0.2, rng.normal(1.0, s3.rate_jitter));
  return latency +
         bytes / (s3.transfer_rate.bytes_per_second() * rate_factor);
}

double mean_object_bytes(const OutputSegmentation& output) {
  return output.object_count == 0
             ? 0.0
             : output.total_volume.as_double() /
                   static_cast<double>(output.object_count);
}
}  // namespace

Seconds retrieval_time_sampled(const OutputSegmentation& output,
                               const cloud::S3Model& s3, Rng& rng) {
  const double mean_object = mean_object_bytes(output);
  double total = 0.0;
  for (std::uint64_t i = 0; i < output.object_count; ++i) {
    total += object_time(s3, mean_object, rng);
  }
  return Seconds(total);
}

SampledRetrieval retrieval_time_sampled_with_faults(
    const OutputSegmentation& output, const cloud::S3Model& s3,
    const cloud::FaultInjector& faults, const RetryPolicy& policy,
    const std::string& key_prefix, Rng& rng) {
  policy.validate();
  SampledRetrieval out;
  const double mean_object = mean_object_bytes(output);
  const cloud::TransferChannel channel{
      [&s3, mean_object](Rng& r) {
        return Seconds(object_time(s3, mean_object, r));
      },
      [&s3](Rng& r) { return Seconds(request_latency(s3, r)); }};
  for (std::uint64_t i = 0; i < output.object_count; ++i) {
    const std::string key = key_prefix + "/" + std::to_string(i);
    const cloud::TransferOutcome o =
        cloud::transfer_with_retries(faults, key, policy, channel, rng);
    if (!o.ok) {
      throw TransferError(o.error, "retrieval of " + key +
                                       " exhausted its retry budget (" +
                                       std::to_string(o.attempts) +
                                       " attempts, last error: " +
                                       to_string(o.error) + ")");
    }
    out.total += o.time;
    out.attempts += o.attempts;
    out.retries += o.attempts - 1;
    out.retry_time += o.retry_overhead();
    out.corruptions_detected += o.corruptions_detected;
    if (obs::enabled()) {
      obs::metrics().counter("retrieval.objects").add(1);
      obs::metrics()
          .histogram("retrieval.object_time",
                     {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 30.0})
          .observe(o.time.value());
    }
  }
  return out;
}

Seconds parallel_retrieval_time(const OutputSegmentation& output,
                                const cloud::S3Model& s3,
                                std::uint64_t parallel_streams) {
  RESHAPE_REQUIRE(parallel_streams > 0, "need at least one stream");
  const RetrievalEstimate sequential = expected_retrieval_time(output, s3);
  // Objects divide across streams; each stream is an independent S3 path.
  return sequential.total / static_cast<double>(parallel_streams);
}

}  // namespace reshape::provision
