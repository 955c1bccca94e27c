// Request/response types of the planning service.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "corpus/corpus.hpp"
#include "provision/planner.hpp"

namespace reshape::serve {

/// One tenant's plan request.  The corpus is held by shared_ptr because
/// the request outlives the submitting call (it crosses the admission
/// queue and a worker thread).
struct PlanRequest {
  /// Application id — half of the model key ("grep", "pos-tag", ...).
  std::string app;
  /// Corpus-shape half of the model key; empty derives it from the corpus
  /// via corpus_shape_signature().
  std::string shape;
  std::shared_ptr<const corpus::Corpus> corpus;
  provision::PlanOptions options;
  /// Optional tenant-versioned dataset id: non-zero skips the O(files)
  /// corpus digest when fingerprinting for the plan cache.  The tenant
  /// owns the contract that a tag changes whenever the corpus does.
  std::uint64_t corpus_tag = 0;
};

enum class PlanStatus {
  kOk,        // plan computed (or served from cache)
  kRejected,  // admission control refused; retry after `retry_after`
  kShed,      // dropped at shutdown
  kFailed,    // the planner itself refused (infeasible deadline, no model)
};

[[nodiscard]] std::string_view to_string(PlanStatus status);

struct PlanResponse {
  PlanStatus status = PlanStatus::kFailed;
  bool cache_hit = false;
  provision::ExecutionPlan plan;
  /// Epoch of the model snapshot the plan was computed under.
  std::uint64_t model_epoch = 0;
  /// Advisory backoff for kRejected (estimated queue drain time).
  Seconds retry_after{0.0};
  std::string error;
};

}  // namespace reshape::serve
