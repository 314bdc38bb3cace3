#include "sim/simulation.h"

namespace cowbird::sim {

Simulation::~Simulation() {
  // Destroy still-suspended root processes (server loops etc). Destroying a
  // root frame cascades: Task objects held in its frame destroy their own
  // child frames. No events are dispatched during teardown.
  // Copy first: destruction does not unregister (only final_suspend does),
  // but guard against any future re-entrancy.
  auto roots = std::move(live_roots_);
  for (auto& [addr, handle] : roots) {
    (void)addr;
    handle.destroy();
  }
}

bool Simulation::PopAndDispatchOne() {
  if (queue_.empty()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  COWBIRD_CHECK(entry.when >= now_);
  now_ = entry.when;
  EventRecord* record = events_.Get(entry.event);
  if (record->timer) {
    // The cell is released here whether the timer fired or was canceled;
    // outstanding TimerHandles go stale (generation mismatch) rather than
    // dangling.
    TimerCell* cell = timer_cells_.TryGet(record->timer);
    COWBIRD_CHECK(cell != nullptr);
    const bool armed = cell->armed;
    timer_cells_.Release(record->timer);
    if (!armed) {
      events_.Release(entry.event);
      return true;  // canceled timer
    }
  }
  ++events_processed_;
  // Invoke in place: the pool slot address is stable even if the callback
  // schedules new events (slab growth never moves slots), so there is no
  // need to move the 64-byte closure out first. The slot is recycled after
  // the call returns.
  record->fn();
  events_.Release(entry.event);
  return true;
}

void Simulation::Run() {
  halted_ = false;
  while (!halted_ && PopAndDispatchOne()) {
  }
}

void Simulation::RunUntil(Nanos deadline) {
  halted_ = false;
  while (!halted_ && !queue_.empty() && queue_.top().when <= deadline) {
    PopAndDispatchOne();
  }
  if (now_ < deadline && !halted_) now_ = deadline;
}

Simulation::RootTask Simulation::RunRoot(Task<void> task) {
  co_await std::move(task);
}

void Simulation::Spawn(Task<void> task) {
  RootTask root = RunRoot(std::move(task));
  root.handle.promise().sim = this;
  live_roots_.emplace(root.handle.address(), root.handle);
  ScheduleAt(now_, [h = root.handle] { h.resume(); });
}

}  // namespace cowbird::sim
