// Simulated CPU threads with time accounting.
//
// A Machine models a compute server with a fixed number of cores. SimThreads
// charge work against the machine; when more threads are simultaneously
// busy than there are cores, work is stretched by the oversubscription
// factor (a processor-sharing approximation, fixed at work start). This is
// what makes "Redy runs out of cores past 8 threads" (Figure 11) an emergent
// behaviour rather than a hard-coded penalty.
//
// Every charged nanosecond is attributed to a category; the communication /
// total ratio is exactly the metric of Figure 10.
#pragma once

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace cowbird::sim {

enum class CpuCategory : int {
  kCompute = 0,        // application logic (hashing, key comparison, copies
                       // the application would also do with local memory)
  kCommunication = 1,  // time spent inside the I/O / disaggregation library
  kCategoryCount = 2,
};

class Machine {
 public:
  Machine(Simulation& sim, int cores) : sim_(&sim), cores_(cores) {
    COWBIRD_CHECK(cores > 0);
  }

  // Permanently occupies `n` cores (e.g. pinned spinning I/O threads that
  // burn a core whether or not work is available — Redy's design).
  void AddPinnedLoad(int n) {
    COWBIRD_CHECK(n >= 0);
    active_ += n;
    pinned_ += n;
  }

  // Registers the start of a work item and returns its stretched duration.
  Nanos BeginWork(Nanos nominal) {
    ++active_;
    const double factor =
        std::max(1.0, static_cast<double>(active_) / cores_);
    return static_cast<Nanos>(static_cast<double>(nominal) * factor);
  }
  void EndWork() {
    COWBIRD_CHECK(active_ > 0);
    --active_;
  }

  // True when some work item could be stretched: a pinned load, or more
  // SimThreads made on this machine than it has cores. On a machine that
  // cannot stretch, every work item lasts its nominal time whatever else
  // runs, so a parked thread may charge checks it never starts
  // (SimThread::Park).
  bool CanStretch() const { return pinned_ > 0 || threads_ > cores_; }

  Simulation& simulation() { return *sim_; }

 private:
  friend class SimThread;

  Simulation* sim_;
  int cores_;
  int active_ = 0;
  int pinned_ = 0;
  // SimThreads ever made on this machine. Never decremented: a thread may
  // outlive its machine (a coroutine frame the Simulation destroys last can
  // hold one), so its destructor must not touch the machine.
  int threads_ = 0;
};

class SimThread {
 public:
  SimThread(Machine& machine, std::string name)
      : machine_(&machine),
        sim_(&machine.simulation()),
        name_(std::move(name)) {
    ++machine_->threads_;
  }
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  const std::string& name() const { return name_; }
  Simulation& simulation() { return *sim_; }
  Machine& machine() { return *machine_; }

  struct WorkAwaiter {
    SimThread* thread;
    Nanos nominal;
    CpuCategory category;

    bool await_ready() const noexcept { return nominal == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      Machine* machine = thread->machine_;
      const Nanos stretched = machine->BeginWork(nominal);
      thread->Account(category, stretched);
      thread->sim_->ScheduleAfter(stretched, [machine, h] {
        machine->EndWork();
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  // Burn `nominal` ns of CPU in `category` (stretched if oversubscribed).
  WorkAwaiter Work(Nanos nominal, CpuCategory category) {
    COWBIRD_CHECK(nominal >= 0);
    return WorkAwaiter{this, nominal, category};
  }

  // Blocked/idle wait: advances time but charges no CPU.
  Simulation::DelayAwaiter Idle(Nanos duration) { return sim_->Delay(duration); }

  // Parked polling (DESIGN.md §10). Stands in, with no queued event, for
  // repeating {Idle(gap); Work(check, category); read} after a check that
  // read at r0 = Now(): eager check j >= 1 would begin its Work at
  // b_j = r0 + j·(gap + check) − check and read at r_j = b_j + check. The
  // coroutine stays suspended until Wake(), then resumes at r_k, the first
  // read at or after Wake()'s instant, so a change landed by then is seen
  // by check k as in the eager loop. Check k is charged as Work begun at
  // b_k (by an event queued there, or at once if b_k has passed); checks
  // before it never run but are charged to `category` as they begin
  // (TimeIn counts them lazily while parked). A skipped check never calls
  // Machine::BeginWork, so the machine must be one that cannot stretch.
  struct ParkAwaiter {
    SimThread* thread;
    Nanos gap;
    Nanos check;
    CpuCategory category;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      thread->park_ = Parked{h, thread->sim_->Now(), gap, check, category};
    }
    void await_resume() const noexcept {}
  };
  ParkAwaiter Park(Nanos gap, Nanos check, CpuCategory category) {
    COWBIRD_CHECK(!machine_->CanStretch());
    COWBIRD_CHECK(!parked() && gap >= 0 && check > 0);
    return ParkAwaiter{this, gap, check, category};
  }
  bool parked() const { return park_.handle != nullptr; }

  // Ends the park: schedules the resume described at Park() for a change
  // that lands now.
  void Wake() {
    COWBIRD_CHECK(parked());
    const Parked p = std::exchange(park_, Parked{});
    const Nanos period = p.gap + p.check;
    const Nanos k =
        std::max<Nanos>(1, (sim_->Now() - p.read + period - 1) / period);
    const Nanos read = p.read + k * period;
    Account(p.category, (k - 1) * p.check);
    auto begin_check = [this, p, read] {
      Machine* machine = machine_;
      machine->BeginWork(p.check);
      Account(p.category, p.check);
      sim_->ScheduleAt(read, [machine, h = p.handle] {
        machine->EndWork();
        h.resume();
      });
    };
    // Two steps, so the resume takes its seq at b_k as the eager Work's
    // does; a write inside check k's Work is charged and resumed at once.
    if (read - p.check > sim_->Now()) {
      sim_->ScheduleAt(read - p.check, begin_check);
    } else {
      begin_check();
    }
  }

  Nanos TimeIn(CpuCategory category) const {
    Nanos time = accounted_[static_cast<int>(category)];
    if (parked() && category == park_.category) {
      time += park_.check * BegunChecks();
    }
    return time;
  }
  Nanos TotalBusy() const {
    Nanos total = 0;
    for (int c = 0; c < static_cast<int>(CpuCategory::kCategoryCount); ++c) {
      total += TimeIn(static_cast<CpuCategory>(c));
    }
    return total;
  }
  double CommunicationRatio() const {
    const Nanos total = TotalBusy();
    if (total == 0) return 0.0;
    return static_cast<double>(TimeIn(CpuCategory::kCommunication)) /
           static_cast<double>(total);
  }

  void Account(CpuCategory category, Nanos duration) {
    accounted_[static_cast<int>(category)] += duration;
  }

 private:
  struct Parked {
    std::coroutine_handle<> handle;
    Nanos read = 0;  // r0: the read instant of the check that parked
    Nanos gap = 0;
    Nanos check = 0;
    CpuCategory category = CpuCategory::kCommunication;
  };

  // Eager checks a parked thread has begun by Now(): j >= 1 with b_j <=
  // Now().
  Nanos BegunChecks() const {
    return (sim_->Now() - park_.read + park_.check) / (park_.gap + park_.check);
  }

  Machine* machine_;
  Simulation* sim_;
  std::string name_;
  std::array<Nanos, static_cast<int>(CpuCategory::kCategoryCount)>
      accounted_ = {};
  Parked park_;
};

}  // namespace cowbird::sim
