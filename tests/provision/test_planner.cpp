#include "provision/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "corpus/distribution.hpp"

namespace reshape::provision {
namespace {

corpus::Corpus gigabyte_corpus(std::uint64_t seed = 1) {
  Rng rng(seed);
  // ~1.09 GB of Text_400K-like files (enough files to sum to it).
  corpus::Corpus all =
      corpus::Corpus::generate(corpus::text_400k_sizes(), 300'000, rng);
  return all.take_volume(Bytes(1'090'000'000));
}

TEST(StaticPlanner, OneHourDeadlineNeedsTwentySevenInstances) {
  // §5.2: D = 3600 under Eq. (3) prescribes 27 instances for the 1 GB set.
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_EQ(plan.instance_count(), 27u);
  EXPECT_EQ(plan.strategy, PackingStrategy::kUniform);
  EXPECT_DOUBLE_EQ(plan.planning_deadline.value(), 3600.0);
}

TEST(StaticPlanner, TwoHourDeadlineNeedsFourteen) {
  // §5.2 / Fig. 9(a): D = 7200 under Eq. (3) gives 14 instances.
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 2_h;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_EQ(plan.instance_count(), 14u);
}

TEST(StaticPlanner, LowerSlopeModelNeedsFewerInstances) {
  // Eq. (4) (slope 0.725e-4) prescribes 22 for 1 h and 11 for 2 h.
  std::vector<double> xs, ys;
  for (double v = 1e4; v <= 1e6; v += 1e5) {
    xs.push_back(v);
    ys.push_back(3.086 + 0.725482e-4 * v);
  }
  const StaticPlanner planner(model::Predictor::fit(xs, ys));
  PlanOptions options;
  options.deadline = 1_h;
  const corpus::Corpus data = gigabyte_corpus();
  EXPECT_EQ(planner.plan(data, options).instance_count(), 22u);
  options.deadline = 2_h;
  EXPECT_EQ(planner.plan(data, options).instance_count(), 11u);
}

TEST(StaticPlanner, PlanCoversWholeCorpusExactly) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  const corpus::Corpus data = gigabyte_corpus();
  for (const PackingStrategy strategy :
       {PackingStrategy::kFirstFit, PackingStrategy::kUniform}) {
    options.strategy = strategy;
    const ExecutionPlan plan = planner.plan(data, options);
    EXPECT_EQ(plan.total_volume(), data.total_volume());
    std::size_t files = 0;
    for (const Assignment& a : plan.assignments) files += a.file_count;
    EXPECT_EQ(files, data.file_count());
  }
}

TEST(StaticPlanner, UniformBinsAreBalanced) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  Bytes lo = plan.assignments[0].volume, hi = plan.assignments[0].volume;
  for (const Assignment& a : plan.assignments) {
    lo = std::min(lo, a.volume);
    hi = std::max(hi, a.volume);
  }
  EXPECT_LT((hi - lo).as_double() / hi.as_double(), 0.05);
}

TEST(StaticPlanner, FirstFitFrontLoadsFullBins) {
  // Fig. 8(a): first-fit fills early bins to x0 and leaves the tail bin
  // light, so the spread is wide.
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kFirstFit;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  Bytes lo = plan.assignments[0].volume, hi = plan.assignments[0].volume;
  for (const Assignment& a : plan.assignments) {
    lo = std::min(lo, a.volume);
    hi = std::max(hi, a.volume);
  }
  EXPECT_GT(hi.as_double() / std::max(1.0, lo.as_double()), 1.1);
  EXPECT_LE(hi, plan.per_instance_target);
}

TEST(StaticPlanner, UniformMakespanBelowFirstFit) {
  // The Fig. 8(a) -> 8(b) improvement.
  const StaticPlanner planner(model::eq3_predictor());
  const corpus::Corpus data = gigabyte_corpus();
  PlanOptions ff;
  ff.deadline = 1_h;
  ff.strategy = PackingStrategy::kFirstFit;
  PlanOptions uni = ff;
  uni.strategy = PackingStrategy::kUniform;
  EXPECT_LE(planner.plan(data, uni).predicted_makespan,
            planner.plan(data, ff).predicted_makespan);
}

TEST(StaticPlanner, AdjustedStrategyLowersPlanningDeadline) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kAdjusted;
  options.residuals.mean = 0.0;
  options.residuals.stddev = 0.1525 / 1.2816;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  // D1 = 3600 / 1.1525 ~= 3124 (the paper's adjusted deadline).
  EXPECT_NEAR(plan.planning_deadline.value(), 3124.0, 5.0);
  EXPECT_LT(plan.planning_deadline, plan.deadline);
  // A tighter planning deadline can only need more instances.
  PlanOptions plain = options;
  plain.strategy = PackingStrategy::kUniform;
  EXPECT_GE(plan.instance_count(),
            planner.plan(gigabyte_corpus(), plain).instance_count());
}

TEST(StaticPlanner, PredictedCostUsesHourCeil) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  // Every instance runs under an hour -> cost = instances * rate.
  EXPECT_NEAR(plan.predicted_cost.amount(),
              static_cast<double>(plan.instance_count()) * 0.085, 1e-9);
  EXPECT_DOUBLE_EQ(plan.predicted_instance_hours,
                   static_cast<double>(plan.instance_count()));
}

TEST(StaticPlanner, PredictedMakespanWithinPlanningDeadline) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = 1_h;
  options.strategy = PackingStrategy::kUniform;
  const ExecutionPlan plan = planner.plan(gigabyte_corpus(), options);
  EXPECT_LE(plan.predicted_makespan.value(),
            plan.planning_deadline.value() * 1.01);
}

TEST(StaticPlanner, ImpossibleDeadlinesThrow) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(0.2);  // below even the intercept
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
  options.deadline = Seconds(0.0);
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
}

TEST(StaticPlanner, DeadlineBelowLargestFileThrows) {
  // A deadline tighter than the largest unsplittable file's processing
  // time cannot be met (§5: "D > time taken to process largest file").
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  options.deadline = Seconds(2.0);  // ~23 kB capacity; files reach 705 kB
  EXPECT_THROW((void)planner.plan(gigabyte_corpus(), options), Error);
}

TEST(StaticPlanner, EmptyCorpusThrows) {
  const StaticPlanner planner(model::eq3_predictor());
  PlanOptions options;
  EXPECT_THROW((void)planner.plan(corpus::Corpus(), options), Error);
}

TEST(PackingStrategyNames, Render) {
  EXPECT_EQ(to_string(PackingStrategy::kFirstFit), "first-fit");
  EXPECT_EQ(to_string(PackingStrategy::kAdjusted), "adjusted-deadline");
}

}  // namespace
}  // namespace reshape::provision
