// AIFM model (Figure 12 comparison).
//
// AIFM [32] hides remote-memory latency with Shenango-style green threads:
// a dereference that misses locally yields the core, a runtime issues the
// remote fetch (over its TCP-on-Shenango dataplane), and the green thread is
// rescheduled when data arrives. Latency is hidden well — but every access
// still pays a nontrivial *CPU* path on the compute node (object descriptor
// management, yield/resume, dataplane work), and parts of the runtime
// serialize across threads. For small objects this caps throughput at a
// level far below NIC line rate, which is exactly what Figure 12 shows
// (Cowbird up to 71x on 8-byte reads).
//
// This is a cost model, not a reimplementation of AIFM: the comparison in
// the paper hinges on AIFM's per-access compute-node CPU cost and its
// cross-thread serialization, both of which are constants here (documented
// in DESIGN.md as a modelled comparator).
#pragma once

#include "common/units.h"
#include "sim/sync.h"
#include "sim/thread.h"

namespace cowbird::baselines {

class AifmModel {
 public:
  // CPU on the app thread per remote dereference: descriptor check, green
  // thread yield + resume, request marshalling, swap-in bookkeeping.
  static constexpr Nanos kPerAccessCpu = 1600;
  // Runtime-shared dataplane section (serializes across threads).
  static constexpr Nanos kSerializedCpu = 350;
  // Per-byte swap-in copy cost.
  static constexpr double kCopyNsPerByte = 0.03;

  explicit AifmModel(sim::Simulation& sim) : dataplane_lock_(sim, 1) {}

  // One remote object read of `length` bytes. Green threads hide the fabric
  // round-trip (the calling SimThread is never idle-blocked on latency);
  // the charged CPU is the bottleneck, as in AIFM's own small-object runs.
  sim::Task<void> RemoteGet(sim::SimThread& thread, std::uint32_t length) {
    co_await thread.Work(kPerAccessCpu, sim::CpuCategory::kCommunication);
    co_await dataplane_lock_.Acquire();
    co_await thread.Work(kSerializedCpu, sim::CpuCategory::kCommunication);
    dataplane_lock_.Release();
    const auto copy =
        static_cast<Nanos>(kCopyNsPerByte * static_cast<double>(length));
    if (copy > 0) {
      co_await thread.Work(copy, sim::CpuCategory::kCommunication);
    }
  }

 private:
  sim::Semaphore dataplane_lock_;
};

}  // namespace cowbird::baselines
