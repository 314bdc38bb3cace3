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
  const QueueEntry entry = queue_.pop();
  COWBIRD_CHECK(entry.when >= now_);
  now_ = entry.when;
  cursor_end_ = entry.order + 1;
  if (entry.IsTimer()) {
    DispatchTimer(entry);
    return true;
  }
  ++events_processed_;
  // Invoke in place: the pool slot address is stable even if the callback
  // schedules new events (slab growth never moves slots), so there is no
  // need to move the 64-byte closure out first. The slot belongs to the
  // queue (no stale handle can name it), and the closure destroys itself
  // as the call returns; the slot is recycled after.
  events_.GetOwned(entry.ref)->CallOnce();
  events_.ReleaseOwned(entry.ref);
  return true;
}

void Simulation::DispatchTimer(const QueueEntry& entry) {
  // Dropped and re-queued pops are not events: only a firing counts.
  TimerCell* cell = timers_.TryGet(entry.ref);
  if (cell == nullptr || cell->queued_seq != entry.seq()) {
    return;  // the handle is gone, or an earlier re-arm superseded this
  }
  if (cell->armed && cell->seq != entry.seq()) {
    // Re-armed to a later deadline while queued: move to the armed key,
    // which keeps the seq it took at arm time.
    cell->queued_when = cell->when;
    cell->queued_seq = cell->seq;
    queue_.push(QueueEntry::Timer(cell->when, cell->seq, entry.ref));
    return;
  }
  cell->queued = false;
  if (!cell->armed) return;  // canceled
  cell->armed = false;
  ++events_processed_;
  // Moved out first: the callback may re-arm this timer (replacing the
  // cell's callback) or destroy its handle (returning the cell).
  EventFn fn = std::move(cell->fn);
  fn();
}

void Simulation::Run() {
  halted_ = false;
  while (!halted_ && PopAndDispatchOne()) {
  }
  // Drained: every key taken so far at or before now_ would have run.
  if (!halted_) cursor_end_ = next_seq_ << 1;
}

void Simulation::RunUntil(Nanos deadline) {
  halted_ = false;
  while (!halted_ && !queue_.empty() && queue_.top_when() <= deadline) {
    PopAndDispatchOne();
  }
  if (now_ <= deadline && !halted_) {
    now_ = deadline;
    cursor_end_ = next_seq_ << 1;
  }
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
