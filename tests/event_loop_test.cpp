// Discrete-event loop: ordering, determinism, periodic timers.
#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace agar::sim {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0.0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30.0, [&] { order.push_back(3); });
  loop.schedule_at(10.0, [&] { order.push_back(1); });
  loop.schedule_at(20.0, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30.0);
}

TEST(EventLoop, TiesBreakByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(5.0, [&] { order.push_back(1); });
  loop.schedule_at(5.0, [&] { order.push_back(2); });
  loop.schedule_at(5.0, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, ScheduleInIsRelative) {
  EventLoop loop;
  SimTimeMs fired_at = -1;
  loop.schedule_at(100.0, [&] {
    loop.schedule_in(50.0, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 150.0);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  SimTimeMs fired_at = -1;
  loop.schedule_at(100.0, [&] {
    loop.schedule_at(10.0, [&] { fired_at = loop.now(); });  // in the past
  });
  loop.run();
  EXPECT_EQ(fired_at, 100.0);
}

TEST(EventLoop, NegativeDelayClampsToZero) {
  EventLoop loop;
  bool fired = false;
  loop.schedule_in(-5.0, [&] { fired = true; });
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), 0.0);
}

TEST(EventLoop, CallbacksCanScheduleMore) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_in(1.0, recurse);
  };
  loop.schedule_in(1.0, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 5.0);
}

TEST(EventLoop, RunUntilStopsAtHorizon) {
  EventLoop loop;
  std::vector<SimTimeMs> fired;
  for (int i = 1; i <= 5; ++i) {
    loop.schedule_at(i * 10.0, [&, i] { fired.push_back(i * 10.0); });
  }
  loop.run_until(30.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(loop.now(), 30.0);
  loop.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(EventLoop, RunUntilAdvancesTimeEvenWithoutEvents) {
  EventLoop loop;
  loop.run_until(500.0);
  EXPECT_EQ(loop.now(), 500.0);
}

TEST(EventLoop, PeriodicFiresUntilCancelled) {
  EventLoop loop;
  int count = 0;
  loop.schedule_periodic(10.0, [&] { return ++count < 3; });
  loop.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(loop.now(), 30.0);
}

TEST(EventLoop, PeriodicFirstFiringAfterOnePeriod) {
  EventLoop loop;
  SimTimeMs first = -1;
  loop.schedule_periodic(25.0, [&] {
    if (first < 0) first = loop.now();
    return false;
  });
  loop.run();
  EXPECT_EQ(first, 25.0);
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_in(1.0, [] {});
  loop.run();
  EXPECT_EQ(loop.events_executed(), 7u);
}

TEST(EventLoop, CancelStopsPeriodicTimer) {
  EventLoop loop;
  int count = 0;
  const auto id = loop.schedule_periodic(10.0, [&] {
    ++count;
    return true;
  });
  EXPECT_TRUE(loop.timer_active(id));
  loop.run_until(25.0);
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(loop.cancel(id));
  loop.run();
  EXPECT_EQ(count, 2);  // the queued firing at t=30 became a no-op
  EXPECT_FALSE(loop.timer_active(id));
  EXPECT_EQ(loop.active_timer_count(), 0u);
}

TEST(EventLoop, CancelOfAlreadyQueuedFiringIsACountedNoOp) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.schedule_periodic(10.0, [&] {
    ++fired;
    return true;
  });
  loop.run_until(15.0);  // the t=20 firing is now queued
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.empty());  // the sharded engine's idle check sees it
  const auto executed_before = loop.events_executed();
  loop.run();
  // The stale firing still pops at its time and counts as an executed
  // event, but must not invoke the callback or re-arm.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.events_executed(), executed_before + 1);
  EXPECT_EQ(loop.now(), 20.0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, CancelIsIdempotent) {
  EventLoop loop;
  const auto id = loop.schedule_periodic(10.0, [] { return true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));
  loop.run();
  EXPECT_EQ(loop.active_timer_count(), 0u);
}

TEST(EventLoop, CancelFromWithinCallbackCannotLeakTimer) {
  // The regression this guards: a callback that cancels its own timer and
  // then returns true (asking to re-arm) must NOT leave a live timer
  // behind — cancellation wins over the return value.
  EventLoop loop;
  int count = 0;
  EventLoop::TimerId id = 0;
  id = loop.schedule_periodic(10.0, [&] {
    ++count;
    loop.cancel(id);
    return true;  // lies: asks to re-arm after cancelling itself
  });
  loop.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.active_timer_count(), 0u);
  EXPECT_EQ(loop.now(), 10.0);  // no ghost firing at t=20
}

TEST(EventLoop, ZeroPeriodIsRejected) {
  EventLoop loop;
  EXPECT_THROW(loop.schedule_periodic(0.0, [] { return true; }),
               std::invalid_argument);
  EXPECT_THROW(loop.schedule_periodic(-5.0, [] { return true; }),
               std::invalid_argument);
  EXPECT_EQ(loop.active_timer_count(), 0u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, ReturningFalseReleasesTimerHandle) {
  EventLoop loop;
  const auto id = loop.schedule_periodic(10.0, [] { return false; });
  loop.run();
  EXPECT_FALSE(loop.timer_active(id));
  EXPECT_EQ(loop.active_timer_count(), 0u);
}

TEST(EventLoop, TimerIdsAreNotReused) {
  EventLoop loop;
  const auto a = loop.schedule_periodic(10.0, [] { return false; });
  const auto b = loop.schedule_periodic(10.0, [] { return false; });
  EXPECT_NE(a, b);
  loop.run();
  const auto c = loop.schedule_periodic(10.0, [] { return false; });
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  loop.run();
}

TEST(EventLoop, StepExecutesExactlyOneEvent) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_in(1.0, [&] { ++fired; });
  loop.schedule_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 1.0);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, InterleavedPeriodicAndOneShot) {
  EventLoop loop;
  std::vector<std::string> sequence;
  loop.schedule_periodic(10.0, [&] {
    sequence.push_back("tick@" + std::to_string(static_cast<int>(loop.now())));
    return loop.now() < 30.0;
  });
  loop.schedule_at(15.0, [&] { sequence.push_back("shot@15"); });
  loop.run();
  EXPECT_EQ(sequence,
            (std::vector<std::string>{"tick@10", "shot@15", "tick@20",
                                      "tick@30"}));
}

TEST(EventLoop, ManyTimersFireInDeterministicOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.schedule_periodic(10.0 + i, [&order, i] {
      order.push_back(i);
      return false;
    });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventLoop, TimerAndOneShotAtTheSameTimeFireInKeyOrder) {
  // A timer firing is keyed (when, lane, seq) like any one-shot: its seq
  // is drawn when it is armed, and a re-arm draws after the callback's own
  // scheduling. Lane 1's timer is armed first yet fires after lane 0's.
  EventLoop loop;
  std::string order;
  const auto log = [&](const std::string& what) {
    order += what + "@" + std::to_string(static_cast<int>(loop.now())) + " ";
  };
  loop.set_scheduling_lane(1);
  loop.schedule_periodic(10.0, [&] {
    log("lane1");
    return false;
  });
  loop.set_scheduling_lane(0);
  loop.schedule_at(10.0, [&] { log("pre"); });
  loop.schedule_periodic(10.0, [&] {
    log("tick");
    if (loop.now() > 10.0) return false;
    loop.schedule_at(20.0, [&] { log("child"); });
    return true;
  });
  loop.schedule_at(10.0, [&] { log("post"); });
  loop.run();
  EXPECT_EQ(order, "pre@10 tick@10 post@10 lane1@10 child@20 tick@20 ");
}

}  // namespace
}  // namespace agar::sim
