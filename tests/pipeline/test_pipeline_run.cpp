// pipeline::run in one process: the same Config gives the same Report,
// stage by stage, for a static grep run and an elastic POS run.  The CLI
// goldens pin the printed lines one process per run; this replays the
// stages twice in one process, which the sanitizer builds sweep.

#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

namespace reshape::pipeline {
namespace {

void expect_same(const Report& a, const Report& b) {
  EXPECT_EQ(a.corpus.files, b.corpus.files);
  EXPECT_EQ(a.corpus.volume, b.corpus.volume);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.screen_attempts, b.screen_attempts);
  EXPECT_EQ(a.predictor.affine().slope, b.predictor.affine().slope);
  EXPECT_EQ(a.predictor.affine().intercept, b.predictor.affine().intercept);
  ASSERT_EQ(a.plan.instance_count(), b.plan.instance_count());
  for (std::size_t i = 0; i < a.plan.instance_count(); ++i) {
    EXPECT_EQ(a.plan.assignments[i].volume, b.plan.assignments[i].volume)
        << "assignment " << i;
  }
  ASSERT_EQ(a.execution.instance_count(), b.execution.instance_count());
  for (std::size_t i = 0; i < a.execution.instance_count(); ++i) {
    EXPECT_EQ(a.execution.outcomes[i].work_time,
              b.execution.outcomes[i].work_time)
        << "outcome " << i;
  }
  EXPECT_EQ(a.execution.cost, b.execution.cost);
  EXPECT_EQ(a.campaign.has_value(), b.campaign.has_value());
}

TEST(PipelineRun, StaticGrepReplaysIdentically) {
  Config config;
  config.corpus = CorpusKind::kHtml;
  config.files = 20'000;
  config.deadline = Seconds(5.0);
  const Report a = run(config);
  const Report b = run(config);
  expect_same(a, b);
  EXPECT_GT(a.plan.instance_count(), 1u);
  EXPECT_EQ(a.plan.total_volume(), a.corpus.volume);
  EXPECT_EQ(a.unit, config.unit);
  EXPECT_FALSE(a.campaign.has_value());
}

TEST(PipelineRun, DynamicPosReplaysIdentically) {
  Config config;
  config.files = 20'000;
  config.deadline = Seconds(600.0);
  config.app = App::kPos;
  config.dynamic = true;
  const Report a = run(config);
  const Report b = run(config);
  expect_same(a, b);
  EXPECT_GT(a.plan.instance_count(), 1u);
  ASSERT_TRUE(a.campaign.has_value());
  EXPECT_GT(a.campaign->epochs, 0u);
  EXPECT_EQ(a.campaign->epochs, b.campaign->epochs);
  EXPECT_EQ(a.campaign->hedges, b.campaign->hedges);
  EXPECT_EQ(a.campaign->hedge_wins, b.campaign->hedge_wins);
}

}  // namespace
}  // namespace reshape::pipeline
