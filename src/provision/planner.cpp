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

/// Converts packed bins to assignments, carrying complexity means.
std::vector<Assignment> to_assignments(const std::vector<pack::Bin>& bins,
                                       const corpus::Corpus& data) {
  std::vector<Assignment> assignments;
  assignments.reserve(bins.size());
  for (const pack::Bin& bin : bins) {
    if (bin.item_ids.empty()) continue;  // drop unused bins
    Assignment a;
    a.volume = bin.used;
    a.file_count = bin.item_ids.size();
    double complexity = 0.0;
    for (const std::uint64_t id : bin.item_ids) {
      complexity += data.files()[id].complexity;
    }
    a.mean_complexity =
        complexity / static_cast<double>(bin.item_ids.size());
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
  std::vector<pack::Item> items;
  items.reserve(data.file_count());
  // Item ids are positional so to_assignments can find complexities.
  for (std::size_t i = 0; i < data.file_count(); ++i) {
    items.push_back(pack::Item{i, data.files()[i].size});
  }

  std::vector<pack::Bin> bins;
  switch (options.strategy) {
    case PackingStrategy::kFirstFit:
      bins = pack::pack_into_k(items, instances, x0);
      break;
    case PackingStrategy::kUniform:
    case PackingStrategy::kAdjusted:
      bins = pack::uniform_bins(items, instances);
      break;
  }
  plan.assignments = to_assignments(bins, data);

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
