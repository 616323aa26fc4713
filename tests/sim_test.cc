#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "sim/periodic.h"

namespace ignem {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::seconds(3), [&] { order.push_back(3); });
  sim.schedule(Duration::seconds(1), [&] { order.push_back(1); });
  sim.schedule(Duration::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::seconds(3));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  SimTime inner_fired;
  sim.schedule(Duration::seconds(1), [&] {
    sim.schedule(Duration::seconds(2), [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, SimTime::zero() + Duration::seconds(3));
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule(Duration::seconds(1), [&] {
    sim.schedule(Duration::zero(), [&] {
      ran = true;
      EXPECT_EQ(sim.now(), SimTime::zero() + Duration::seconds(1));
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Duration::seconds(-1), [] {}), CheckFailure);
}

TEST(Simulator, ScheduleAtPastRejected) {
  Simulator sim;
  sim.schedule(Duration::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::zero() + Duration::seconds(1), [] {}),
               CheckFailure);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.schedule(Duration::seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventHandle h = sim.schedule(Duration::seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, CancelFiredEventFails) {
  Simulator sim;
  const EventHandle h = sim.schedule(Duration::seconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, CancelInvalidHandleFails) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle::invalid()));
}

TEST(Simulator, RunUntilTimeLimitIncludesBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule(Duration::seconds(1), [&] { ++count; });
  sim.schedule(Duration::seconds(2), [&] { ++count; });
  sim.schedule(Duration::seconds(3), [&] { ++count; });
  sim.run(SimTime::zero() + Duration::seconds(2));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilPredicateStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::seconds(i), [&] { ++count; });
  }
  sim.run_until([&] { return count >= 4; });
  EXPECT_EQ(count, 4);
}

// run_until tests its predicate before each pop, and only while an event is
// pending: the state an event leaves when it drains the queue is never
// tested. Every test and bench that stops on a predicate depends on exactly
// this loop.
TEST(Simulator, RunUntilTestsPredicateBeforeEachPop) {
  Simulator sim;
  int count = 0;
  std::vector<int> seen;  // `count` at each test of the predicate
  const auto never = [&] {
    seen.push_back(count);
    return false;
  };
  for (int i = 1; i <= 3; ++i) {
    sim.schedule(Duration::seconds(i), [&] { ++count; });
  }
  // Draining: tested before each of the three pops; the empty queue ends the
  // loop before a fourth test, so the state after event 3 is never seen.
  EXPECT_EQ(sim.run_until(never), 3u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));

  // Stopping at `limit`: an event is still pending past it, so the state
  // the last event before it left is tested once, and then the limit ends
  // the run.
  for (int i = 4; i <= 6; ++i) {
    sim.schedule(Duration::seconds(1), [&] { ++count; });
    sim.schedule(Duration::seconds(10), [&] { ++count; });
  }
  seen.clear();
  EXPECT_EQ(sim.run_until(never, sim.now() + Duration::seconds(1)), 3u);
  EXPECT_EQ(count, 6);
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6}));

  // A predicate already true dispatches nothing.
  EXPECT_EQ(sim.run_until([] { return true; }), 0u);
  EXPECT_EQ(sim.pending_events(), 3u);

  // A predicate that turns true on an event's state stops before the next
  // pop: the one test after that event is the one that ends the run.
  seen.clear();
  EXPECT_EQ(sim.run_until([&] {
              seen.push_back(count);
              return count == 7;
            }),
            1u);
  EXPECT_EQ(seen, (std::vector<int>{6, 7}));
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(Simulator, StopRequestHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule(Duration::seconds(i), [&] {
      ++count;
      if (count == 2) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 2);
  sim.run();  // resumes
  EXPECT_EQ(count, 5);
}

TEST(Simulator, EventCountReported) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::micros(i + 1), [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(EventQueue, CancelledHeadSkipped) {
  EventQueue q;
  bool first = false, second = false;
  const EventHandle h1 =
      q.push(SimTime(10), [&] { first = true; });
  q.push(SimTime(20), [&] { second = true; });
  q.cancel(h1);
  EXPECT_EQ(q.next_time(), SimTime(20));
  auto [when, action] = q.pop();
  action();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(q.empty());
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, Duration::seconds(2), [&] {
    fire_times.push_back(sim.now().to_seconds());
    if (fire_times.size() == 3) task.stop();
  });
  sim.run(SimTime::zero() + Duration::seconds(100));
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_DOUBLE_EQ(fire_times[0], 2.0);
  EXPECT_DOUBLE_EQ(fire_times[1], 4.0);
  EXPECT_DOUBLE_EQ(fire_times[2], 6.0);
}

TEST(PeriodicTask, InitialDelayIndependentOfPeriod) {
  Simulator sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, Duration::seconds(1), Duration::seconds(5), [&] {
    fire_times.push_back(sim.now().to_seconds());
  });
  sim.run(SimTime::zero() + Duration::seconds(12));
  task.stop();
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_DOUBLE_EQ(fire_times[0], 1.0);
  EXPECT_DOUBLE_EQ(fire_times[1], 6.0);
  EXPECT_DOUBLE_EQ(fire_times[2], 11.0);
}

TEST(PeriodicTask, StopIsIdempotentAndDestructorSafe) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTask task(sim, Duration::seconds(1), [&] { ++fires; });
    sim.run(SimTime::zero() + Duration::seconds(3));
    task.stop();
    task.stop();
  }  // destructor after stop must not crash
  sim.run(SimTime::zero() + Duration::seconds(10));
  EXPECT_EQ(fires, 3);
}

}  // namespace
}  // namespace ignem
