#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/thread.h"

namespace cowbird::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.ScheduleAt(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelableTimerDoesNotFire) {
  Simulation sim;
  int fired = 0;
  TimerHandle handle;
  handle.ArmAfter(sim, 50, [&] { ++fired; });
  EXPECT_TRUE(handle.Pending());
  handle.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmToALaterDeadlineFiresOnceThere) {
  Simulation sim;
  std::vector<Nanos> fired_at;
  TimerHandle timer;
  timer.ArmAfter(sim, 50, [&] { fired_at.push_back(-1); });
  timer.ArmAfter(sim, 100, [&] { fired_at.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Nanos>{100}));
  // The early entry's pop re-queues it; only the firing is an event.
  EXPECT_EQ(sim.EventsProcessed(), 1u);
  EXPECT_FALSE(timer.Pending());
}

TEST(Timer, RearmToAnEarlierDeadlineFiresOnceThere) {
  Simulation sim;
  std::vector<Nanos> fired_at;
  TimerHandle timer;
  timer.ArmAfter(sim, 100, [&] { fired_at.push_back(-1); });
  timer.ArmAfter(sim, 30, [&] { fired_at.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Nanos>{30}));
  EXPECT_EQ(sim.EventsProcessed(), 1u);
}

TEST(Timer, CancelThenRearmFiresAtTheNewDeadline) {
  Simulation sim;
  std::vector<Nanos> fired_at;
  TimerHandle timer;
  timer.ArmAfter(sim, 50, [&] { fired_at.push_back(sim.Now()); });
  timer.Cancel();
  EXPECT_FALSE(timer.Pending());
  timer.ArmAfter(sim, 80, [&] { fired_at.push_back(sim.Now()); });
  EXPECT_TRUE(timer.Pending());
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Nanos>{80}));
}

TEST(Timer, CallbackThatRearmsItselfFiresPeriodically) {
  Simulation sim;
  std::vector<Nanos> fired_at;
  TimerHandle timer;
  std::function<void()> tick = [&] {
    fired_at.push_back(sim.Now());
    if (fired_at.size() < 5) timer.ArmAfter(sim, 10, [&] { tick(); });
  };
  timer.ArmAfter(sim, 10, [&] { tick(); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Nanos>{10, 20, 30, 40, 50}));
  EXPECT_EQ(sim.EventsProcessed(), 5u);
}

// The seq is taken at arm time: a timer armed at t1 and re-armed at t2 for
// deadline T fires after events scheduled for T before t2 and before those
// scheduled for T after t2 — where a freshly scheduled event would fire.
TEST(Timer, RearmTakesItsSeqAtArmTime) {
  Simulation sim;
  std::vector<char> order;
  TimerHandle timer;
  timer.ArmAfter(sim, 100, [&] { order.push_back('x'); });  // t1 = 0
  sim.ScheduleAt(10, [&] {  // before t2
    sim.ScheduleAt(100, [&] { order.push_back('a'); });
  });
  sim.ScheduleAt(40, [&] {  // t2 = 40, same deadline T = 100
    timer.ArmAfter(sim, 60, [&] { order.push_back('t'); });
  });
  sim.ScheduleAt(50, [&] {  // after t2
    sim.ScheduleAt(100, [&] { order.push_back('b'); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 't', 'b'}));
}

TEST(Timer, RearmsBetweenDispatchesTakeNoEventRecord) {
  Simulation sim;
  int fired = 0;
  TimerHandle timer;
  sim.ScheduleAt(1, [&] {
    const std::uint64_t high_water = sim.EventPoolStats().high_water;
    for (int i = 0; i < 10'000; ++i) {
      timer.ArmAfter(sim, 100, [&] { ++fired; });
    }
    EXPECT_EQ(sim.EventPoolStats().high_water, high_water);
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 101);
  EXPECT_EQ(sim.TimerPoolStats().in_use, 1u);
}

TEST(Timer, DestroyedArmedHandleNeverFiresAndReturnsItsCell) {
  Simulation sim;
  int fired = 0;
  {
    TimerHandle timer;
    timer.ArmAfter(sim, 50, [&] { ++fired; });
    EXPECT_EQ(sim.TimerPoolStats().in_use, 1u);
  }
  EXPECT_EQ(sim.TimerPoolStats().in_use, 0u);
  // A new timer may take the returned cell; the old entry still drops.
  TimerHandle other;
  other.ArmAfter(sim, 80, [&] { fired += 10; });
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.EventsProcessed(), 1u);
}

TEST(Timer, MovedHandleKeepsItsTimer) {
  Simulation sim;
  int fired = 0;
  TimerHandle timer;
  timer.ArmAfter(sim, 50, [&] { ++fired; });
  TimerHandle moved = std::move(timer);
  EXPECT_TRUE(moved.Pending());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.TimerPoolStats().in_use, 1u);
}

// Owners that come and go (P4 instances, DCQCN flows) return their cells:
// churn keeps the pool at the number of live handles.
TEST(Timer, HandleChurnKeepsThePoolBounded) {
  Simulation sim;
  int fired = 0;
  for (int round = 0; round < 1'000; ++round) {
    std::vector<TimerHandle> timers(8);
    for (TimerHandle& timer : timers) {
      timer.ArmAfter(sim, 100, [&] { ++fired; });
    }
    sim.RunFor(10);
  }
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.TimerPoolStats().in_use, 0u);
  EXPECT_LE(sim.TimerPoolStats().high_water, 8u);
}

// A reserved event keeps the key it was reserved under: it fires after the
// same-time events scheduled before the Reserve() and before those
// scheduled after it, however late it is actually queued.
TEST(Simulation, ReservedEventFiresInReserveOrder) {
  Simulation sim;
  std::vector<char> order;
  sim.ScheduleAt(100, [&] { order.push_back('a'); });
  const std::uint64_t seq = sim.Reserve();
  sim.ScheduleAt(100, [&] { order.push_back('b'); });
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAt(100, [&] { order.push_back('c'); });
    sim.ScheduleReserved(100, seq, [&] { order.push_back('r'); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b', 'c'}));
  EXPECT_EQ(sim.EventsProcessed(), 5u);
}

TEST(Simulation, PassedDuringDispatch) {
  Simulation sim;
  std::vector<bool> seen;
  // Keys (10, 0), (10, 1) reserved and never queued, (10, 2).
  sim.ScheduleAt(10, [&] {
    seen.push_back(sim.Passed(10, 0));  // the entry being dispatched
    seen.push_back(sim.Passed(10, 1));  // a later key at the same time
    seen.push_back(sim.Passed(9, 1'000));
    seen.push_back(sim.Passed(11, 0));
  });
  const std::uint64_t reserved = sim.Reserve();
  EXPECT_FALSE(sim.Passed(10, reserved));
  sim.ScheduleAt(10, [&] {
    seen.push_back(sim.Passed(10, reserved));  // sorts before this entry
    seen.push_back(sim.Passed(10, sim.Reserve()));  // taken now: after it
  });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true, false, true, false}));
}

TEST(Simulation, PassedAfterRunUntilAdvancedTheClock) {
  Simulation sim;
  const std::uint64_t at_120 = sim.Reserve();
  sim.ScheduleAt(100, [] {});
  const std::uint64_t at_150 = sim.Reserve();  // after the last dispatch
  sim.RunUntil(110);
  EXPECT_FALSE(sim.Passed(120, at_120));
  sim.RunUntil(150);
  EXPECT_EQ(sim.Now(), 150);
  // Every key at or before the deadline would have run...
  EXPECT_TRUE(sim.Passed(120, at_120));
  EXPECT_TRUE(sim.Passed(150, at_150));
  // ...but not one taken afterwards, nor a later time.
  EXPECT_FALSE(sim.Passed(150, sim.Reserve()));
  EXPECT_FALSE(sim.Passed(151, at_150));
}

TEST(Simulation, PassedAfterHalt) {
  Simulation sim;
  sim.ScheduleAt(10, [&] { sim.Halt(); });
  const std::uint64_t at_10 = sim.Reserve();
  const std::uint64_t at_15 = sim.Reserve();
  sim.ScheduleAt(20, [] {});
  sim.RunUntil(100);
  // A halted run leaves the cursor at the halting event and the clock
  // where it stopped.
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_FALSE(sim.Passed(10, at_10));
  EXPECT_FALSE(sim.Passed(15, at_15));
  sim.ScheduleReserved(15, at_15, [] {});
  sim.Run();
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_TRUE(sim.Passed(10, at_10));
  EXPECT_TRUE(sim.Passed(15, at_15));
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

// A drained queue has nothing left to run at Now(): a key reserved there
// earlier counts as passed even when it sorts after the last dispatch.
TEST(Simulation, PassedAfterRunDrainsTheQueue) {
  Simulation sim;
  sim.ScheduleAt(20, [] {});
  const std::uint64_t at_20 = sim.Reserve();
  sim.Run();
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_TRUE(sim.Passed(20, at_20));
  EXPECT_FALSE(sim.Passed(20, sim.Reserve()));
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int value = 0;
  sim.ScheduleAt(1, [&] {
    sim.ScheduleAfter(5, [&] { value = sim.Now() == 6 ? 42 : -1; });
  });
  sim.Run();
  EXPECT_EQ(value, 42);
}

TEST(Coroutine, DelayAdvancesClock) {
  Simulation sim;
  Nanos woke_at = -1;
  sim.Spawn([](Simulation& s, Nanos& out) -> Task<void> {
    co_await s.Delay(123);
    out = s.Now();
  }(sim, woke_at));
  sim.Run();
  EXPECT_EQ(woke_at, 123);
}

TEST(Coroutine, SubtaskReturnsValue) {
  Simulation sim;
  int result = 0;

  struct Helpers {
    static Task<int> Inner(Simulation& s) {
      co_await s.Delay(10);
      co_return 7;
    }
    static Task<void> Outer(Simulation& s, int& out) {
      const int a = co_await Inner(s);
      const int b = co_await Inner(s);
      out = a + b;
    }
  };
  sim.Spawn(Helpers::Outer(sim, result));
  sim.Run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(sim.Now(), 20);
}

TEST(Coroutine, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;

  struct Helpers {
    static Task<int> Thrower(Simulation& s) {
      co_await s.Delay(1);
      throw std::runtime_error("boom");
    }
    static Task<void> Catcher(Simulation& s, bool& out) {
      try {
        (void)co_await Thrower(s);
      } catch (const std::runtime_error&) {
        out = true;
      }
    }
  };
  sim.Spawn(Helpers::Catcher(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(Coroutine, SuspendedRootIsDestroyedAtTeardown) {
  // A process suspended forever (waiting on a channel that never delivers)
  // must not leak or crash at simulation destruction.
  auto sim = std::make_unique<Simulation>();
  auto channel = std::make_unique<Channel<int>>(*sim);
  sim->Spawn([](Channel<int>& ch) -> Task<void> {
    (void)co_await ch.Receive();
  }(*channel));
  sim->Run();
  sim.reset();  // destroys the suspended frame; channel outlives it
}

TEST(Sync, ChannelDeliversInFifoOrder) {
  Simulation sim;
  Channel<int> channel(sim);
  std::vector<int> received;
  sim.Spawn([](Channel<int>& ch, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 5; ++i) out.push_back(co_await ch.Receive());
  }(channel, received));
  sim.ScheduleAt(10, [&] {
    for (int i = 0; i < 5; ++i) channel.Send(i);
  });
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sync, ChannelHandoffToEarlierWaiter) {
  Simulation sim;
  Channel<int> channel(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 2; ++w) {
    sim.Spawn([](Channel<int>& ch, std::vector<std::pair<int, int>>& out,
                 int id) -> Task<void> {
      const int v = co_await ch.Receive();
      out.emplace_back(id, v);
    }(channel, got, w));
  }
  sim.ScheduleAt(5, [&] {
    channel.Send(100);
    channel.Send(200);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  // First registered waiter gets first value.
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
}

TEST(Sync, ChannelTryReceive) {
  Simulation sim;
  Channel<int> channel(sim);
  EXPECT_FALSE(channel.TryReceive().has_value());
  channel.Send(9);
  auto v = channel.TryReceive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn([](Simulation& s, Semaphore& sm, int& cur,
                 int& pk) -> Task<void> {
      co_await sm.Acquire();
      ++cur;
      pk = std::max(pk, cur);
      co_await s.Delay(10);
      --cur;
      sm.Release();
    }(sim, sem, concurrent, peak));
  }
  sim.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sim.Now(), 30);  // 6 jobs, 2 at a time, 10 ns each
}

TEST(Thread, WorkChargesCategory) {
  Simulation sim;
  Machine machine(sim, 4);
  SimThread thread(machine, "t0");
  sim.Spawn([](SimThread& t) -> Task<void> {
    co_await t.Work(100, CpuCategory::kCompute);
    co_await t.Work(50, CpuCategory::kCommunication);
    co_await t.Idle(1000);
    co_await t.Work(50, CpuCategory::kCommunication);
  }(thread));
  sim.Run();
  EXPECT_EQ(thread.TimeIn(CpuCategory::kCompute), 100);
  EXPECT_EQ(thread.TimeIn(CpuCategory::kCommunication), 100);
  EXPECT_EQ(thread.TotalBusy(), 200);
  EXPECT_DOUBLE_EQ(thread.CommunicationRatio(), 0.5);
  EXPECT_EQ(sim.Now(), 1200);
}

TEST(Thread, OversubscriptionStretchesWork) {
  Simulation sim;
  Machine machine(sim, 2);
  std::vector<std::unique_ptr<SimThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(std::make_unique<SimThread>(machine, "t"));
  }
  // 4 threads on 2 cores all start 100 ns of work at t=0. The first two see
  // load ≤ cores (factor 1 for #1, 1 for #2); the 3rd and 4th see factors
  // 1.5 and 2.
  for (auto& t : threads) {
    sim.Spawn([](SimThread& thr) -> Task<void> {
      co_await thr.Work(100, CpuCategory::kCompute);
    }(*t));
  }
  sim.Run();
  EXPECT_EQ(threads[0]->TotalBusy(), 100);
  EXPECT_EQ(threads[1]->TotalBusy(), 100);
  EXPECT_EQ(threads[2]->TotalBusy(), 150);
  EXPECT_EQ(threads[3]->TotalBusy(), 200);
  EXPECT_EQ(sim.Now(), 200);
}

TEST(Thread, MachineCanStretchWithPinnedLoadOrMoreThreadsThanCores) {
  Simulation sim;
  Machine machine(sim, 2);
  SimThread a(machine, "a");
  SimThread b(machine, "b");
  EXPECT_FALSE(machine.CanStretch());
  SimThread c(machine, "c");
  EXPECT_TRUE(machine.CanStretch());

  Machine pinned(sim, 2);
  SimThread d(pinned, "d");
  EXPECT_FALSE(pinned.CanStretch());
  pinned.AddPinnedLoad(1);
  EXPECT_TRUE(pinned.CanStretch());
}

TEST(Thread, ZeroWorkIsFree) {
  Simulation sim;
  Machine machine(sim, 1);
  SimThread thread(machine, "t");
  sim.Spawn([](SimThread& t) -> Task<void> {
    co_await t.Work(0, CpuCategory::kCompute);
  }(thread));
  sim.Run();
  EXPECT_EQ(thread.TotalBusy(), 0);
  EXPECT_EQ(sim.Now(), 0);
}

}  // namespace
}  // namespace cowbird::sim
