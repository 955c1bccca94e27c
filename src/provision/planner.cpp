#include "provision/planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "provision/cost.hpp"
#include "reshape/binpack.hpp"

namespace reshape::provision {

std::string_view to_string(PackingStrategy strategy) {
  switch (strategy) {
    case PackingStrategy::kFirstFit: return "first-fit";
    case PackingStrategy::kUniform: return "uniform";
    case PackingStrategy::kAdjusted: return "adjusted-deadline";
  }
  return "?";
}

Bytes ExecutionPlan::total_volume() const {
  Bytes total{0};
  for (const Assignment& a : assignments) total += a.volume;
  return total;
}

namespace {

/// Converts a packing to assignments, dropping unused bins.  One pass in
/// file order sums each bin's file count and complexity.
std::vector<Assignment> to_assignments(const pack::Packing& packing,
                                       const corpus::Corpus& data) {
  std::vector<std::uint64_t> count(packing.bins.size(), 0);
  std::vector<double> complexity(packing.bins.size(), 0.0);
  for (std::size_t i = 0; i < packing.bin_of.size(); ++i) {
    ++count[packing.bin_of[i]];
    complexity[packing.bin_of[i]] += data.files()[i].complexity;
  }
  std::vector<Assignment> assignments;
  for (std::size_t b = 0; b < packing.bins.size(); ++b) {
    if (count[b] == 0) continue;
    Assignment a;
    a.volume = packing.bins[b].used;
    a.file_count = count[b];
    a.mean_complexity = complexity[b] / static_cast<double>(count[b]);
    assignments.push_back(a);
  }
  return assignments;
}

}  // namespace

ExecutionPlan plan(const model::Predictor& predictor,
                   const corpus::Corpus& data, const PlanOptions& options) {
  RESHAPE_REQUIRE(!data.empty(), "nothing to plan for");
  RESHAPE_REQUIRE(options.deadline.value() > 0.0, "deadline must be positive");

  ExecutionPlan plan;
  plan.strategy = options.strategy;
  plan.deadline = options.deadline;
  plan.planning_deadline =
      options.strategy == PackingStrategy::kAdjusted
          ? model::adjusted_deadline(options.deadline, options.residuals,
                                     kMissProbability)
          : options.deadline;

  const Bytes x0 = predictor.max_volume_within(plan.planning_deadline);
  RESHAPE_REQUIRE(x0.count() > 0,
                  "even an empty input misses this deadline under the model");
  // Files are unsplittable: the largest file must fit within x0.
  RESHAPE_REQUIRE(
      data.max_file_size() <= x0,
      "deadline is below the processing time of the largest unsplittable file");
  plan.per_instance_target = x0;

  const std::size_t instances = instances_needed(data.total_volume(), x0);
  const pack::Packing packing =
      options.strategy == PackingStrategy::kFirstFit
          ? pack::pack_into_k(data.files(), instances, x0)
          : pack::uniform_bins(data.files(), instances);
  plan.assignments = to_assignments(packing, data);

  Bytes largest{0};
  for (const Assignment& a : plan.assignments) {
    largest = std::max(largest, a.volume);
  }
  plan.predicted_makespan = predictor.predict(largest);

  // Each instance bills ceil(hours of its own predicted run).
  double hours = 0.0;
  for (const Assignment& a : plan.assignments) {
    hours += std::ceil(predictor.predict(a.volume).hours());
  }
  plan.predicted_instance_hours = hours;
  plan.predicted_cost = cloud::spec_for(kInstanceType).hourly_rate * hours;
  return plan;
}

ExecutionPlan StaticPlanner::plan(const corpus::Corpus& data,
                                  const PlanOptions& options) const {
  return provision::plan(predictor_, data, options);
}

}  // namespace reshape::provision
