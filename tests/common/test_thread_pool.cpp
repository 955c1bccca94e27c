#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace reshape {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> fs;
  for (int i = 0; i < 200; ++i) {
    fs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeNeverCalls) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForThrowingTaskDrainsBeforeRethrow) {
  // Regression: an early throw used to abandon queued tasks that still
  // referenced the caller's callable — a use-after-scope once parallel_for
  // returned.  The whole batch must finish before the exception surfaces.
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&completed](std::size_t i) {
                          if (i == 0) throw std::runtime_error("task 0");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, QueueDepthTracksWaitingTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);

  // Park the lone worker so subsequently submitted tasks must wait.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> parked;
  auto blocker = pool.submit([&parked, gate] {
    parked.set_value();
    gate.wait();
  });
  parked.get_future().wait();

  std::vector<std::future<void>> waiting;
  for (int i = 0; i < 3; ++i) {
    waiting.push_back(pool.submit([gate] { gate.wait(); }));
  }
  EXPECT_EQ(pool.queue_depth(), 3u);

  release.set_value();
  blocker.wait();
  for (auto& f : waiting) f.wait();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, ParallelForRethrowsTheFirstExceptionWhenSeveralThrow) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(8, [](std::size_t i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    // The first *submitted* task's exception wins (deterministic choice).
    EXPECT_STREQ(e.what(), "task 0");
  }
}

}  // namespace
}  // namespace reshape
