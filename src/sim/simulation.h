// Discrete-event simulation core.
//
// A Simulation owns a virtual clock and an event queue of (time, sequence,
// callback) entries. Events at equal times fire in schedule order, which —
// together with the seeded PRNGs — makes every run bit-reproducible.
//
// Coroutine processes (sim::Task<void>) are attached with Spawn(); they
// interact with the clock via `co_await sim.Delay(ns)` and with each other
// via the primitives in sync.h. All coroutine resumptions are funneled
// through the event queue (never resumed inline), so there is no reentrancy
// and no unbounded recursion between communicating processes.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/inline_function.h"
#include "common/pool.h"
#include "common/units.h"
#include "sim/task.h"

namespace cowbird::sim {

class Simulation;

// Event callbacks live inline in the queue entry: a std::function here
// heap-allocated once per simulated event (any capture beyond 16 bytes),
// which dominated the simulator's allocator traffic.
using EventFn = InlineFunction<void()>;

// Handle to a scheduled event that may be canceled (e.g. retransmission
// timers). Cancellation is lazy: the queue entry stays but becomes a no-op.
// The armed/disarmed bit lives in a pooled slab cell owned by the
// Simulation; the cell is recycled when the event dispatches, and the
// generation tag on the handle makes later Cancel()/Pending() calls on the
// stale handle safe no-ops.
class TimerHandle {
 public:
  TimerHandle() = default;

  void Cancel();
  bool Pending() const;

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, PoolHandle cell) : sim_(sim), cell_(cell) {}
  Simulation* sim_ = nullptr;
  PoolHandle cell_;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  Nanos Now() const { return now_; }

  // Templated so the closure is constructed directly inside the pooled
  // event record (InlineFunction's converting constructor) instead of being
  // relocated through an EventFn parameter — two 64-byte moves per event on
  // the hottest path in the simulator.
  template <typename F>
  void ScheduleAt(Nanos when, F&& fn) {
    COWBIRD_CHECK(when >= now_);
    const PoolHandle event =
        events_.Acquire(std::forward<F>(fn), PoolHandle{});
    queue_.push(QueueEntry{when, next_seq_++, event});
  }
  template <typename F>
  void ScheduleAfter(Nanos delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  TimerHandle ScheduleCancelableAfter(Nanos delay, F&& fn) {
    const PoolHandle cell = timer_cells_.Acquire();
    const PoolHandle event = events_.Acquire(std::forward<F>(fn), cell);
    queue_.push(QueueEntry{now_ + delay, next_seq_++, event});
    return TimerHandle(this, cell);
  }

  // Runs until the event queue drains or Halt() is called.
  void Run();
  // Runs until virtual time reaches `deadline` (events exactly at the
  // deadline still fire), the queue drains, or Halt() is called.
  void RunUntil(Nanos deadline);
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }
  // Stops the dispatch loop after the current event.
  void Halt() { halted_ = true; }

  // Attach a root process. It is started via the event queue at the current
  // time; its frame is owned by the simulation and destroyed either on
  // completion or, if still suspended (e.g. a server loop), at simulation
  // destruction.
  void Spawn(Task<void> task);

  // Resume a suspended coroutine through the event queue at the current time.
  void Resume(std::coroutine_handle<> h) {
    ScheduleAt(now_, [h] { h.resume(); });
  }

  struct DelayAwaiter {
    Simulation* sim;
    Nanos delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->ScheduleAfter(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  // Suspend the calling coroutine for `delay` virtual nanoseconds.
  // Delay(0) still round-trips through the event queue, providing a
  // deterministic yield point.
  DelayAwaiter Delay(Nanos delay) {
    COWBIRD_CHECK(delay >= 0);
    return DelayAwaiter{this, delay};
  }

  std::uint64_t EventsProcessed() const { return events_processed_; }

  // Live counters of the pooled event/timer records, for BindPoolTelemetry
  // (harnesses bind them as pool_in_use / pool_high_water /
  // pool_exhausted_total gauges labeled by pool name).
  const PoolStats& EventPoolStats() const { return events_.stats(); }
  const PoolStats& TimerPoolStats() const { return timer_cells_.stats(); }

 private:
  // The callable and timer handle live in a pooled record; the heap itself
  // holds only small POD entries, so sift-up/down moves 24 bytes instead of
  // relocating a 64-byte inline closure per swap.
  struct EventRecord {
    EventFn fn;
    PoolHandle timer;  // null → not cancelable
  };

  struct QueueEntry {
    Nanos when;
    std::uint64_t seq;
    PoolHandle event;

    bool operator>(const QueueEntry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // 4-ary min-heap on (when, seq). The key is unique per entry, so pop
  // order — and therefore the simulation — is identical to any other
  // conforming heap; the wider fan-out just halves the sift depth of the
  // hottest loop in the simulator. Entries are 24-byte PODs by design.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    const QueueEntry& top() const { return v_[0]; }

    void push(QueueEntry e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(v_[parent] > v_[i])) break;
        std::swap(v_[parent], v_[i]);
        i = parent;
      }
    }

    void pop() {
      v_[0] = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * 4 + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
          if (v_[best] > v_[c]) best = c;
        }
        if (!(v_[i] > v_[best])) break;
        std::swap(v_[i], v_[best]);
        i = best;
      }
    }

   private:
    std::vector<QueueEntry> v_;
  };

  struct TimerCell {
    bool armed = true;
  };

  // Driver coroutine wrapping a spawned task; destroys itself on completion.
  struct RootTask {
    struct promise_type {
      Simulation* sim = nullptr;

      RootTask get_return_object() {
        return RootTask{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      struct FinalAwaiter {
        bool await_ready() noexcept { return false; }
        void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
          Simulation* sim = h.promise().sim;
          sim->live_roots_.erase(h.address());
          h.destroy();
        }
        void await_resume() noexcept {}
      };
      FinalAwaiter final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }
    };
    std::coroutine_handle<promise_type> handle;
  };

  static RootTask RunRoot(Task<void> task);

  bool PopAndDispatchOne();

  friend class TimerHandle;

  Nanos now_ = 0;
  bool halted_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EventHeap queue_;
  // Event payloads, recycled at dispatch.
  Pool<EventRecord> events_{1024, /*growable=*/true};
  // Armed bits for cancelable timers; a cell is acquired per timer and
  // released when its event dispatches (fired or canceled).
  Pool<TimerCell> timer_cells_{64, /*growable=*/true};
  // address → handle of still-live root coroutines, for teardown.
  std::unordered_map<void*, std::coroutine_handle<>> live_roots_;
};

inline void TimerHandle::Cancel() {
  if (sim_ == nullptr) return;
  if (auto* cell = sim_->timer_cells_.TryGet(cell_)) cell->armed = false;
}

inline bool TimerHandle::Pending() const {
  if (sim_ == nullptr) return false;
  const auto* cell = sim_->timer_cells_.TryGet(cell_);
  return cell != nullptr && cell->armed;
}

}  // namespace cowbird::sim
