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

  Simulation& simulation() { return *sim_; }

 private:
  Simulation* sim_;
  int cores_;
  int active_ = 0;
};

class SimThread {
 public:
  SimThread(Machine& machine, std::string name)
      : machine_(&machine),
        sim_(&machine.simulation()),
        name_(std::move(name)) {}

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

  Nanos TimeIn(CpuCategory category) const {
    return accounted_[static_cast<int>(category)];
  }
  Nanos TotalBusy() const {
    Nanos total = 0;
    for (auto t : accounted_) total += t;
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
  Machine* machine_;
  Simulation* sim_;
  std::string name_;
  std::array<Nanos, static_cast<int>(CpuCategory::kCategoryCount)>
      accounted_ = {};
};

}  // namespace cowbird::sim
