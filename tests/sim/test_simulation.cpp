#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/simulation_reference.hpp"

namespace reshape::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation s;
  EXPECT_DOUBLE_EQ(s.now().value(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(Seconds(10.0), [&order](Simulation&) { order.push_back(2); });
  s.schedule_at(Seconds(5.0), [&order](Simulation&) { order.push_back(1); });
  s.schedule_at(Seconds(20.0), [&order](Simulation&) { order.push_back(3); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now().value(), 20.0);
}

TEST(Simulation, EqualTimestampsFireInScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(Seconds(1.0), [&order, i](Simulation&) { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation s;
  double fired_at = -1.0;
  s.schedule_at(Seconds(10.0), [&fired_at](Simulation& sim) {
    sim.schedule_in(Seconds(5.0), [&fired_at](Simulation& inner) {
      fired_at = inner.now().value();
    });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation s;
  bool fired = false;
  const EventHandle h =
      s.schedule_at(Seconds(1.0), [&fired](Simulation&) { fired = true; });
  EXPECT_TRUE(s.cancel(h));
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, DoubleCancelReturnsFalse) {
  Simulation s;
  const EventHandle h = s.schedule_at(Seconds(1.0), [](Simulation&) {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
  EXPECT_FALSE(s.cancel(EventHandle{}));
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation s;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.schedule_at(Seconds(t), [&fired](Simulation& sim) {
      fired.push_back(sim.now().value());
    });
  }
  EXPECT_EQ(s.run_until(Seconds(2.5)), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.now().value(), 2.5);
  EXPECT_EQ(s.pending(), 2u);
}

TEST(Simulation, RunUntilAdvancesIdleClock) {
  Simulation s;
  s.run_until(Seconds(100.0));
  EXPECT_DOUBLE_EQ(s.now().value(), 100.0);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation s;
  int chain = 0;
  Simulation::Callback next = [&](Simulation& sim) {
    if (++chain < 10) {
      sim.schedule_in(Seconds(1.0), [&](Simulation& inner) {
        if (++chain < 10) inner.schedule_in(Seconds(1.0), next);
      });
    }
  };
  s.schedule_at(Seconds(0.0), next);
  s.run();
  EXPECT_GE(chain, 2);
}

TEST(Simulation, PastSchedulingThrows) {
  Simulation s;
  s.schedule_at(Seconds(5.0), [](Simulation&) {});
  s.run();
  EXPECT_THROW(s.schedule_at(Seconds(1.0), [](Simulation&) {}), Error);
  EXPECT_THROW(s.schedule_in(Seconds(-1.0), [](Simulation&) {}), Error);
}

TEST(Simulation, StepFiresExactlyOne) {
  Simulation s;
  int count = 0;
  s.schedule_at(Seconds(1.0), [&count](Simulation&) { ++count; });
  s.schedule_at(Seconds(2.0), [&count](Simulation&) { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulation, CancelledEventSkippedByStep) {
  Simulation s;
  bool second = false;
  const EventHandle h = s.schedule_at(Seconds(1.0), [](Simulation&) {});
  s.schedule_at(Seconds(2.0), [&second](Simulation&) { second = true; });
  s.cancel(h);
  EXPECT_TRUE(s.step());  // skips cancelled, fires the 2.0s event
  EXPECT_TRUE(second);
}

// Regression: the seed engine accepted cancel() for ids that had already
// fired (any id < the sequence counter), silently corrupting pending().
// A handle must be dead the moment its event fires.
TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation s;
  bool fired = false;
  const EventHandle h =
      s.schedule_at(Seconds(1.0), [&fired](Simulation&) { fired = true; });
  s.schedule_at(Seconds(2.0), [](Simulation&) {});
  EXPECT_EQ(s.run(), 2u);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.pending(), 0u);
}

// The retained reference oracle carries the same fix (its header calls
// out the deliberate deviation from the seed).
TEST(SimulationReference, CancelAfterFireReturnsFalse) {
  SimulationReference s;
  bool fired = false;
  const ReferenceEventHandle h =
      s.schedule_at(Seconds(1.0), [&fired](SimulationReference&) {
        fired = true;
      });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(s.cancel(h));
  EXPECT_EQ(s.pending(), 0u);
}

// A callback cancelling its own (currently firing) event gets false: the
// slot is invalidated before the callable runs.
TEST(Simulation, CancelOwnHandleDuringCallbackReturnsFalse) {
  Simulation s;
  EventHandle h;
  bool cancel_result = true;
  h = s.schedule_at(Seconds(1.0), [&](Simulation& sim) {
    cancel_result = sim.cancel(h);
  });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(s.pending(), 0u);
}

// Cancel-then-reschedule reuses the slab slot (LIFO free list); the
// generation bump must reject the stale handle even though the slot is
// live again under a new event.
TEST(Simulation, StaleHandleRejectedAfterSlotReuse) {
  Simulation s;
  bool a_fired = false;
  bool b_fired = false;
  const EventHandle a =
      s.schedule_at(Seconds(1.0), [&a_fired](Simulation&) { a_fired = true; });
  EXPECT_TRUE(s.cancel(a));
  const EventHandle b =
      s.schedule_at(Seconds(2.0), [&b_fired](Simulation&) { b_fired = true; });
  ASSERT_EQ(a.slot, b.slot);  // the freed slot was reused...
  EXPECT_NE(a.generation, b.generation);  // ...under a new generation
  EXPECT_FALSE(s.cancel(a));  // stale handle must not kill event B
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(s.cancel(b));  // and B's handle dies once B fires
}

// schedule_at(now()) from inside a firing callback: legal, fires in the
// same run at the same timestamp, after every equal-time event that was
// scheduled earlier (FIFO by sequence).
TEST(Simulation, ScheduleAtNowInsideCallbackFiresSameRun) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(Seconds(1.0), [&order](Simulation& sim) {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&order](Simulation&) { order.push_back(3); });
  });
  s.schedule_at(Seconds(1.0), [&order](Simulation&) { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now().value(), 1.0);
}

// Events at integer times 0..512 re-span into a ladder rung of width
// exactly 1.0, so every event sits exactly on a bucket start boundary.
// run_until(horizon) landing exactly on such a boundary must include the
// boundary event (<= horizon, not <).
TEST(Simulation, RunUntilExactlyOnLadderBucketBoundary) {
  Simulation s;
  std::size_t fired = 0;
  for (int t = 0; t <= 512; ++t) {
    s.schedule_at(Seconds(static_cast<double>(t)),
                  [&fired](Simulation&) { ++fired; });
  }
  EXPECT_EQ(s.run_until(Seconds(0.0)), 1u);  // the t=0 event, exactly
  EXPECT_EQ(s.run_until(Seconds(7.0)), 7u);  // t=1..7 inclusive
  EXPECT_DOUBLE_EQ(s.now().value(), 7.0);
  EXPECT_EQ(s.pending(), 505u);
  EXPECT_EQ(s.run_until(Seconds(511.0)), 504u);  // t=8..511
  EXPECT_EQ(s.run(), 1u);                        // t=512
  EXPECT_EQ(fired, 513u);
}

}  // namespace
}  // namespace reshape::sim
