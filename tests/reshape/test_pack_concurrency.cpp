// The packers keep no state between calls: each call builds and owns its
// tree.  The planning server calls provision::plan (and so uniform_bins
// or pack_into_k) from its worker while clients plan directly, so plans
// made from several threads at once must equal the sequential ones.
// Swept under -DRESHAPE_SANITIZE=thread (tsan-smoke).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "model/predictor.hpp"
#include "provision/planner.hpp"

namespace reshape::provision {
namespace {

struct Case {
  corpus::Corpus data;
  PlanOptions options;
};

/// A corpus and a deadline that splits it over roughly `bins` instances.
Case make_case(const corpus::FileSizeDistribution& dist, std::size_t files,
               std::uint64_t seed, std::uint64_t bins) {
  Rng rng(seed);
  Case c{corpus::Corpus::generate(dist, files, rng), PlanOptions{}};
  const Bytes target =
      std::max(c.data.max_file_size(), c.data.total_volume() / bins);
  c.options.deadline = model::eq3_predictor().predict(target);
  return c;
}

bool same_plan(const ExecutionPlan& a, const ExecutionPlan& b) {
  if (a.strategy != b.strategy || a.deadline != b.deadline ||
      a.planning_deadline != b.planning_deadline ||
      a.per_instance_target != b.per_instance_target ||
      a.predicted_makespan != b.predicted_makespan ||
      a.predicted_instance_hours != b.predicted_instance_hours ||
      a.predicted_cost != b.predicted_cost ||
      a.assignments.size() != b.assignments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const Assignment& x = a.assignments[i];
    const Assignment& y = b.assignments[i];
    if (x.volume != y.volume || x.file_count != y.file_count ||
        x.mean_complexity != y.mean_complexity || x.value != y.value) {
      return false;
    }
  }
  return true;
}

TEST(PackConcurrency, PlansFromFourThreadsMatchSequential) {
  const std::array<Case, 3> cases = {
      make_case(corpus::text_400k_sizes(), 2'000, 1, 7),
      make_case(corpus::html_18mil_sizes(), 3'000, 2, 20),
      make_case(corpus::text_400k_sizes(), 5'000, 3, 70),
  };
  constexpr std::array<PackingStrategy, 2> kStrategies = {
      PackingStrategy::kUniform, PackingStrategy::kFirstFit};
  const model::Predictor predictor = model::eq3_predictor();

  auto options_for = [&](const Case& c, PackingStrategy strategy) {
    PlanOptions options = c.options;
    options.strategy = strategy;
    return options;
  };
  std::vector<ExecutionPlan> want;
  for (const Case& c : cases) {
    for (const PackingStrategy strategy : kStrategies) {
      want.push_back(plan(predictor, c.data, options_for(c, strategy)));
      ASSERT_GT(want.back().instance_count(), 1u);
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::array<int, kThreads> mismatches{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::size_t i = 0;
        for (const Case& c : cases) {
          for (const PackingStrategy strategy : kStrategies) {
            if (!same_plan(plan(predictor, c.data, options_for(c, strategy)),
                           want[i++])) {
              ++mismatches[static_cast<std::size_t>(t)];
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace reshape::provision
