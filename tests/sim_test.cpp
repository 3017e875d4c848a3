#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace aequus::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30.0, [&] { order.push_back(3); });
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(20.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 30.0);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7.0, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_after(5.0, [&] { fired_at = s.now(); });
  });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator s;
  s.schedule_at(10.0, [] {});
  s.run_all();
  double fired_at = -1.0;
  s.schedule_at(5.0, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_after(-3.0, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 0.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventHandle handle = s.schedule_at(5.0, [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator s;
  int count = 0;
  s.schedule_at(10.0, [&] { ++count; });
  s.schedule_at(20.0, [&] { ++count; });
  s.run_until(15.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(s.now(), 15.0);
  s.run_until(25.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator s;
  std::vector<double> times;
  s.schedule_periodic(10.0, 10.0, [&] { times.push_back(s.now()); });
  s.run_until(45.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 20.0, 30.0, 40.0}));
}

TEST(Simulator, PeriodicCancelStopsFutureFirings) {
  Simulator s;
  int count = 0;
  EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; });
  s.run_until(3.5);
  handle.cancel();
  s.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator s;
  int count = 0;
  EventHandle handle;
  handle = s.schedule_periodic(1.0, 1.0, [&] {
    if (++count == 2) handle.cancel();
  });
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicRejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(s.schedule_periodic(0.0, 0.0, [] {}), std::invalid_argument);
}

TEST(Simulator, DestroyedHandleDoesNotCancel) {
  // EventHandle is a cancellation token, not an RAII guard: letting it go
  // out of scope must leave the event armed.
  Simulator s;
  bool fired = false;
  { EventHandle handle = s.schedule_at(5.0, [&] { fired = true; }); }
  s.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulator, DestroyedPeriodicHandleKeepsFiring) {
  Simulator s;
  int count = 0;
  { EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; }); }
  s.run_until(4.5);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, PeriodicCancelBetweenFiringsTakesEffectImmediately) {
  // Cancel lands between the 2nd and 3rd firings (at t=2.5), scheduled as
  // an event so the cancellation itself happens in virtual time.
  Simulator s;
  int count = 0;
  EventHandle handle = s.schedule_periodic(1.0, 1.0, [&] { ++count; });
  s.schedule_at(2.5, [&] { handle.cancel(); });
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, CancelledEventStillDrainsFromQueue) {
  Simulator s;
  EventHandle handle = s.schedule_at(5.0, [] {});
  handle.cancel();
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  // A cancelled event is skipped, not executed.
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Simulator, TieBreakHoldsAcrossMixedScheduleCalls) {
  // (time, insertion-seq) ordering must hold regardless of which schedule
  // API inserted the event and in which relative time order.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(10.0, [&] { order.push_back(0); });
  s.schedule_after(10.0, [&] { order.push_back(1); });
  s.schedule_at(10.0, [&] { order.push_back(2); });
  s.schedule_periodic(10.0, 100.0, [&] { order.push_back(3); });
  s.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, TieBreakAppliesToEventsScheduledMidFiring) {
  // An event scheduled *during* a t=5 firing for t=5 runs after every
  // pre-existing t=5 event (it got a later insertion sequence).
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5.0, [&] {
    order.push_back(0);
    s.schedule_after(0.0, [&] { order.push_back(9); });
  });
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1.0, recurse);
  };
  s.schedule_at(0.0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(s.now(), 4.0);
}

TEST(Simulator, HeapKeepsFifoTiesUnderInterleavedTimes) {
  // Many events over a few timestamps, inserted out of time order, so the
  // heap reshuffles them: within each timestamp they must still fire in
  // insertion order.
  Simulator s;
  std::vector<std::pair<double, int>> fired;
  for (int i = 0; i < 200; ++i) {
    const double at = static_cast<double>((i * 7) % 5);
    s.schedule_at(at, [&fired, &s, i] { fired.emplace_back(s.now(), i); });
  }
  s.run_all();
  ASSERT_EQ(fired.size(), 200u);
  for (std::size_t k = 1; k < fired.size(); ++k) {
    ASSERT_LE(fired[k - 1].first, fired[k].first);
    if (fired[k - 1].first == fired[k].first) {
      EXPECT_LT(fired[k - 1].second, fired[k].second);
    }
  }
}

TEST(Simulator, MovedOutEventOwnsItsCapturedState) {
  // step() moves the event out of the heap before running it, so an
  // action that schedules more work (growing the heap) still runs with
  // its own captured state intact.
  Simulator s;
  std::vector<std::string> seen;
  const std::string payload(1000, 'x');
  s.schedule_at(1.0, [&, payload] {
    for (int i = 0; i < 64; ++i) s.schedule_at(1.0, [] {});
    seen.push_back(payload);
  });
  s.run_all();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.front(), payload);
  EXPECT_EQ(s.executed(), 65u);
}

TEST(Simulator, CancellationAndPeriodicRearmAmongTies) {
  // A cancelled event between same-time neighbours is skipped without
  // disturbing their order, and a periodic task keeps re-arming with
  // later sequences than the one-shot events already queued.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] { order.push_back(0); });
  EventHandle cancelled = s.schedule_at(2.0, [&] { order.push_back(-1); });
  s.schedule_at(2.0, [&] { order.push_back(1); });
  EventHandle periodic = s.schedule_periodic(1.0, 1.0, [&] { order.push_back(7); });
  s.schedule_at(3.0, [&] { order.push_back(2); });
  cancelled.cancel();
  s.schedule_at(3.5, [&] { periodic.cancel(); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{7, 0, 1, 7, 2, 7}));
  EXPECT_FALSE(periodic.active());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, FiredEventSlotIsReused) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.post_at(2.0, [&] { ++fired; });
  EXPECT_EQ(s.slot_count(), 2u);
  s.run_all();
  // Both slots are free again: the next two events take them over.
  s.post_at(3.0, [&] { ++fired; });
  s.schedule_at(4.0, [&] { ++fired; });
  EXPECT_EQ(s.slot_count(), 2u);
  s.run_all();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.slot_count(), 2u);
}

TEST(Simulator, EventScheduledWhileFiringReusesItsSlot) {
  // step() frees the slot before running the action, so a chain of
  // events that each schedule the next one needs a single slot.
  Simulator s;
  int depth = 0;
  std::function<void()> next = [&] {
    if (++depth < 100) s.post_after(1.0, next);
  };
  s.post_at(0.0, next);
  s.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.slot_count(), 1u);
}

TEST(Simulator, CancelledEventSlotIsReusedOncePopped) {
  Simulator s;
  bool fired = false;
  EventHandle handle = s.schedule_at(5.0, [&] { fired = true; });
  handle.cancel();
  // Not popped yet: the cancelled event still holds its slot.
  EXPECT_EQ(s.pending(), 1u);
  s.post_at(6.0, [] {});
  EXPECT_EQ(s.slot_count(), 2u);
  s.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed(), 1u);
  s.post_at(7.0, [] {});
  s.post_at(7.0, [] {});
  EXPECT_EQ(s.slot_count(), 2u);
}

TEST(Simulator, FifoTiesHoldAcrossReusedSlots) {
  // Slots are reused last-freed first, so a later event can sit in a
  // lower slot than an earlier one; ties must still follow insertion.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) s.post_at(1.0, [] {});
  s.run_all();
  for (int i = 0; i < 8; ++i) {
    s.post_at(5.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.slot_count(), 8u);
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, PendingCountsCancelledEventsUntilPopped) {
  Simulator s;
  EventHandle first = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EventHandle third = s.schedule_at(3.0, [] {});
  first.cancel();
  third.cancel();
  EXPECT_EQ(s.pending(), 3u);
  s.run_until(1.5);  // pops the cancelled head only
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.step());  // the cancelled tail drains without firing
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Simulator, CancelAfterFiringIsANoOp) {
  // The stale handle's flag is its own, not the slot's: cancelling it
  // must not cancel the event that has since taken the slot over.
  Simulator s;
  int fired = 0;
  EventHandle handle = s.schedule_at(1.0, [&] { ++fired; });
  s.run_all();
  EXPECT_EQ(fired, 1);
  s.post_at(2.0, [&] { ++fired; });
  EventHandle next = s.schedule_at(3.0, [&] { ++fired; });
  handle.cancel();
  s.run_all();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(next.active());
}

TEST(Simulator, PostAndScheduleShareOneTieOrder) {
  Simulator s;
  std::vector<int> order;
  s.post_at(10.0, [&] { order.push_back(0); });
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.post_after(10.0, [&] { order.push_back(2); });
  s.schedule_after(10.0, [&] { order.push_back(3); });
  s.schedule_periodic(10.0, 100.0, [&] { order.push_back(4); });
  s.post_at(10.0, [&] { order.push_back(5); });
  s.post_at(5.0, [&] { s.post_after(5.0, [&] { order.push_back(6); }); });
  s.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, PostClampsPastTimesAndNegativeDelays) {
  Simulator s;
  s.post_at(10.0, [] {});
  s.run_all();
  std::vector<double> fired;
  s.post_at(5.0, [&] { fired.push_back(s.now()); });
  s.post_after(-1.0, [&] { fired.push_back(s.now()); });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<double>{10.0, 10.0}));
}

}  // namespace
}  // namespace aequus::sim
