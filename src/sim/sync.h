// Synchronization primitives for simulation coroutines.
//
// All primitives resume waiters *through the event queue* (Simulation::
// Resume) rather than inline, so a Send/Release never runs the waiter's code
// in the sender's stack frame. This keeps the event ordering model uniform:
// anything that happens, happens as a dispatched event.
#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "sim/simulation.h"

namespace cowbird::sim {

// Unbounded multi-producer / multi-consumer FIFO channel.
//
// Values are handed directly to a waiting receiver when one exists (each
// pending receiver's awaiter has a slot), which avoids the classic
// wake-then-steal race between a scheduled waiter and a fresh receiver.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Send(T value) {
    if (!waiters_.empty()) {
      ReceiveAwaiter* waiter = waiters_.front();
      waiters_.pop_front();
      waiter->slot.emplace(std::move(value));
      sim_->Resume(waiter->handle);
      return;
    }
    values_.push_back(std::move(value));
  }

  bool Empty() const { return values_.empty(); }
  std::size_t Size() const { return values_.size(); }

  struct ReceiveAwaiter {
    Channel* channel;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (!channel->values_.empty()) {
        slot.emplace(std::move(channel->values_.front()));
        channel->values_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      channel->waiters_.push_back(this);
    }
    T await_resume() {
      COWBIRD_CHECK(slot.has_value());
      return std::move(*slot);
    }
  };

  ReceiveAwaiter Receive() { return ReceiveAwaiter{this, std::nullopt, {}}; }

  // Non-blocking receive.
  std::optional<T> TryReceive() {
    if (values_.empty()) return std::nullopt;
    T v = std::move(values_.front());
    values_.pop_front();
    return v;
  }

 private:
  Simulation* sim_;
  FixedDeque<T> values_;
  FixedDeque<ReceiveAwaiter*> waiters_;
};

// Counting semaphore with direct token hand-off on Release().
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial) : sim_(&sim),
                                                     count_(initial) {
    COWBIRD_CHECK(initial >= 0);
  }

  struct AcquireAwaiter {
    Semaphore* sem;
    bool await_ready() {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    if (!waiters_.empty()) {
      // Token handed to the waiter directly; count_ stays unchanged.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Resume(h);
      return;
    }
    ++count_;
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  FixedDeque<std::coroutine_handle<>> waiters_;
};

}  // namespace cowbird::sim
