// Static provisioning planner (§5).
//
// Given a performance predictor, a corpus and a deadline D, determine how
// many instances to request and how to pack the data onto them so the
// deadline is met at minimum cost.  Three packing strategies reproduce
// the paper's progression:
//
//   kFirstFit  — pack into i bins of capacity x0 = f^{-1}(D) in original
//                order (Fig. 8(a): bins fill unevenly, some miss).
//   kUniform   — balance volume evenly across the i instances
//                (Fig. 8(b): same cost, deadline met).
//   kAdjusted  — uniform, but planned against the lowered deadline
//                D/(1+a) from the residual-quantile rule
//                (Figs. 8(d), 9(c)).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "cloud/types.hpp"
#include "common/units.hpp"
#include "corpus/corpus.hpp"
#include "model/predictor.hpp"

namespace reshape::provision {

enum class PackingStrategy { kFirstFit, kUniform, kAdjusted };

[[nodiscard]] std::string_view to_string(PackingStrategy strategy);

/// The data one instance will process.
struct Assignment {
  Bytes volume{0};
  std::uint64_t file_count = 0;
  /// Mean complexity of the assigned files (drives CPU-bound app cost).
  double mean_complexity = 1.0;
  /// Relative worth when the elastic controller must shed work under an
  /// infeasible deadline: lowest value goes first.  Uniform by default, so
  /// plans that never degrade are unaffected.
  double value = 1.0;
};

struct ExecutionPlan {
  PackingStrategy strategy = PackingStrategy::kUniform;
  Seconds deadline{0.0};           // the user's D
  Seconds planning_deadline{0.0};  // D or the adjusted D1
  Bytes per_instance_target{0};    // x0 = f^{-1}(planning_deadline)
  std::vector<Assignment> assignments;
  Seconds predicted_makespan{0.0};
  double predicted_instance_hours = 0.0;
  Dollars predicted_cost{0.0};

  [[nodiscard]] std::size_t instance_count() const {
    return assignments.size();
  }
  [[nodiscard]] Bytes total_volume() const;
};

/// The paper's platform: plans are priced at, and executed on, m1.small.
inline constexpr cloud::InstanceType kInstanceType =
    cloud::InstanceType::kSmall;

/// kAdjusted's target probability of a missed deadline (§5.2).
inline constexpr double kMissProbability = 0.10;

struct PlanOptions {
  Seconds deadline{3600.0};
  PackingStrategy strategy = PackingStrategy::kUniform;
  /// Used only by kAdjusted.
  model::RelativeResiduals residuals{};
};

/// The one-shot planning function: a pure mapping from (predictor, data,
/// options) to a plan.  Both StaticPlanner and the planning server
/// (serve::PlanServer) call exactly this, which is what makes a
/// server-produced plan bit-identical to a direct library call.
[[nodiscard]] ExecutionPlan plan(const model::Predictor& predictor,
                                 const corpus::Corpus& data,
                                 const PlanOptions& options);

class StaticPlanner {
 public:
  explicit StaticPlanner(model::Predictor predictor)
      : predictor_(predictor) {}

  [[nodiscard]] const model::Predictor& predictor() const {
    return predictor_;
  }

  /// Builds a plan for processing all of `data` by the deadline.
  [[nodiscard]] ExecutionPlan plan(const corpus::Corpus& data,
                                   const PlanOptions& options) const;

 private:
  model::Predictor predictor_;
};

}  // namespace reshape::provision
