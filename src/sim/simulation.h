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

// A re-armable timer (retransmission, DCQCN, PFC and batch timers) that
// owns at most one event-queue entry however often it is re-armed. Its
// state lives in a pooled cell owned by the Simulation: the callback, the
// armed (deadline, seq), and the key of its one queued entry. Arming takes
// a fresh seq exactly as ScheduleAt does, so a firing keeps the (time, seq)
// key a freshly scheduled event would have had. A re-arm to a later
// deadline only rewrites the armed key; when the early entry pops it is
// re-queued at that key. Cancellation clears the armed bit and the entry
// is dropped when it pops.
//
// Lifetime: the handle is move-only and owns its cell. The cell is taken
// on the first arm and returned when the handle is destroyed (disarming
// the timer): a queued entry of a returned cell fails its generation check
// and is dropped when it pops. The Simulation must outlive its timers.
class TimerHandle {
 public:
  TimerHandle() = default;
  TimerHandle(TimerHandle&& other) noexcept
      : sim_(std::exchange(other.sim_, nullptr)),
        cell_(std::exchange(other.cell_, PoolHandle{})) {}
  TimerHandle& operator=(TimerHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      sim_ = std::exchange(other.sim_, nullptr);
      cell_ = std::exchange(other.cell_, PoolHandle{});
    }
    return *this;
  }
  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;
  ~TimerHandle() { Reset(); }

  // Runs `fn` at sim.Now() + delay unless the timer is canceled or re-armed
  // first; a re-arm replaces both the deadline and the callback. The
  // callback may re-arm its own timer.
  template <typename F>
  void ArmAfter(Simulation& sim, Nanos delay, F&& fn);
  void Cancel();
  bool Pending() const;

 private:
  void Reset();

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
  // event slot (InlineFunction's converting constructor) instead of being
  // relocated through an EventFn parameter — two 64-byte moves per event on
  // the hottest path in the simulator.
  template <typename F>
  void ScheduleAt(Nanos when, F&& fn) {
    COWBIRD_CHECK(when >= now_);
    const PoolHandle event = events_.Acquire(std::forward<F>(fn));
    queue_.push(QueueEntry{when, next_seq_++ << 1, event});
  }
  template <typename F>
  void ScheduleAfter(Nanos delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Deferred events. Reserve() takes the seq a ScheduleAt made now would
  // take, without queueing anything; ScheduleReserved(when, seq, fn) later
  // queues `fn` under exactly that (when, seq) key, as long as the key has
  // not Passed(). An owner that may never need its event (a link's
  // transmit-done when no packet waits) reserves the key and pushes the
  // event only on demand, so the events that do run keep the keys, and the
  // order, that scheduling them eagerly would have given.
  std::uint64_t Reserve() { return next_seq_++; }
  template <typename F>
  void ScheduleReserved(Nanos when, std::uint64_t seq, F&& fn) {
    COWBIRD_CHECK(seq < next_seq_ && !Passed(when, seq));
    const PoolHandle event = events_.Acquire(std::forward<F>(fn));
    queue_.push(QueueEntry{when, seq << 1, event});
  }
  // True when an event keyed (when, seq) would already have run: the key
  // sorts at or before the dispatch cursor. The cursor is the key of the
  // entry being dispatched, or of the last one dispatched; once a Run()
  // drains the queue, or a RunUntil() ends at its deadline, every key
  // taken so far at or before Now() counts as passed.
  bool Passed(Nanos when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && (seq << 1) < cursor_end_);
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

  // Live counters of the pooled event callbacks and timer cells (one cell
  // per TimerHandle that has been armed and not destroyed), for
  // BindPoolTelemetry (harnesses bind them as pool_in_use / pool_high_water
  // / pool_exhausted_total gauges labeled by pool name).
  const PoolStats& EventPoolStats() const { return events_.stats(); }
  const PoolStats& TimerPoolStats() const { return timers_.stats(); }

 private:
  // The heap holds only small POD entries naming a pooled callback or timer
  // cell, so a sift moves 24 bytes instead of relocating a 64-byte inline
  // closure. The low bit of `order` marks a timer entry; seqs are unique,
  // so (when, order) sorts exactly as (when, seq).
  struct QueueEntry {
    Nanos when;
    std::uint64_t order;  // seq << 1 | is-timer
    PoolHandle ref;       // into events_, or into timers_ for a timer

    static QueueEntry Timer(Nanos when, std::uint64_t seq, PoolHandle cell) {
      return QueueEntry{when, (seq << 1) | 1, cell};
    }
    bool IsTimer() const { return (order & 1) != 0; }
    std::uint64_t seq() const { return order >> 1; }

    // (when, order) as one unsigned 128-bit number, compared in one go
    // (queued times are never negative). Built on demand so the entry
    // keeps 8-byte alignment and its 24 bytes.
    __uint128_t Key() const {
      return (static_cast<__uint128_t>(static_cast<std::uint64_t>(when))
              << 64) |
             order;
    }
  };

  // 4-ary min-heap on (when, seq). The key is unique per entry, so pop
  // order — and therefore the simulation — is identical to any other
  // conforming heap; the wider fan-out just halves the sift depth of the
  // hottest loop in the simulator. Both sifts move a hole and write the
  // moving entry once, where it lands.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    Nanos top_when() const { return v_[0].when; }

    void push(QueueEntry e) {
      const __uint128_t key = e.Key();
      std::size_t hole = v_.size();
      v_.emplace_back();
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (v_[parent].Key() < key) break;
        v_[hole] = v_[parent];
        hole = parent;
      }
      v_[hole] = e;
    }

    QueueEntry pop() {
      const QueueEntry top = v_[0];
      const QueueEntry last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n == 0) return top;
      const __uint128_t key = last.Key();
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = hole * 4 + 1;
        if (first >= n) break;
        std::size_t best = first;
        __uint128_t best_key = v_[first].Key();
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          const __uint128_t child = v_[c].Key();
          if (child < best_key) {
            best = c;
            best_key = child;
          }
        }
        if (key < best_key) break;
        v_[hole] = v_[best];
        hole = best;
      }
      v_[hole] = last;
      return top;
    }

   private:
    std::vector<QueueEntry> v_;
  };

  struct TimerCell {
    EventFn fn;
    Nanos when = 0;         // armed deadline
    std::uint64_t seq = 0;  // armed seq
    bool armed = false;
    bool queued = false;  // one live heap entry, at the key below
    Nanos queued_when = 0;
    std::uint64_t queued_seq = 0;
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
  void DispatchTimer(const QueueEntry& entry);

  template <typename F>
  void Arm(PoolHandle handle, Nanos when, F&& fn) {
    TimerCell* cell = timers_.Get(handle);
    cell->fn = std::forward<F>(fn);
    cell->when = when;
    cell->seq = next_seq_++;
    cell->armed = true;
    // The new key's seq is the largest yet, so it is later than the queued
    // entry's unless its deadline is earlier: only then does it need an
    // entry of its own (the old one becomes superseded).
    if (cell->queued && cell->queued_when <= when) return;
    cell->queued = true;
    cell->queued_when = when;
    cell->queued_seq = cell->seq;
    queue_.push(QueueEntry::Timer(when, cell->seq, handle));
  }

  friend class TimerHandle;

  Nanos now_ = 0;
  // The dispatch cursor's order word plus one, at time now_: keys at now_
  // with (seq << 1) below it have passed (see Passed()).
  std::uint64_t cursor_end_ = 0;
  bool halted_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EventHeap queue_;
  // Event callbacks, recycled at dispatch.
  Pool<EventFn> events_{1024, /*growable=*/true};
  // One cell per live TimerHandle, returned when the handle is destroyed.
  Pool<TimerCell> timers_{64, /*growable=*/true};
  // address → handle of still-live root coroutines, for teardown.
  std::unordered_map<void*, std::coroutine_handle<>> live_roots_;
};

template <typename F>
void TimerHandle::ArmAfter(Simulation& sim, Nanos delay, F&& fn) {
  COWBIRD_CHECK(delay >= 0);
  if (sim_ == nullptr) {
    sim_ = &sim;
    cell_ = sim.timers_.Acquire();
  }
  COWBIRD_CHECK(sim_ == &sim);
  sim.Arm(cell_, sim.now_ + delay, std::forward<F>(fn));
}

inline void TimerHandle::Cancel() {
  if (sim_ != nullptr) sim_->timers_.Get(cell_)->armed = false;
}

inline bool TimerHandle::Pending() const {
  return sim_ != nullptr && sim_->timers_.Get(cell_)->armed;
}

inline void TimerHandle::Reset() {
  if (sim_ == nullptr) return;
  sim_->timers_.Release(cell_);
  sim_ = nullptr;
  cell_ = PoolHandle{};
}

}  // namespace cowbird::sim
