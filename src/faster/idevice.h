// The storage-layer interface FASTER exposes (IDevice) and its local/SSD
// implementations.
//
// FASTER's hybrid log spills the read-only portion to an IDevice; the paper
// ports FASTER to Cowbird by instantiating an IDevice over the Cowbird API
// (Section 7). We reproduce that seam: every storage backend in Figure 9 is
// an IDevice here. All device CPU costs are charged to the calling
// application thread as kCommunication (that is precisely the overhead
// Figure 10 measures); data always physically moves so reads can be
// verified end-to-end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/sparse_memory.h"
#include "common/units.h"
#include "rdma/params.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/thread.h"

namespace cowbird::faster {

using CompletionFn = std::function<void()>;

// Outstanding storage reads per application thread (the YCSB run phase's
// pipeline, Section 7).
constexpr int kPipelineDepth = 32;

class IDevice {
 public:
  virtual ~IDevice() = default;

  // Reads `len` bytes at device offset `offset` into compute-node memory at
  // `dest_addr`. If the call completes inline, `done` is invoked before
  // returning; otherwise it fires later (from Poll or an engine event).
  virtual sim::Task<void> ReadAsync(sim::SimThread& thread,
                                    std::uint64_t offset,
                                    std::uint64_t dest_addr,
                                    std::uint32_t len, CompletionFn done) = 0;

  // Writes `len` bytes from compute memory `src_addr` to device `offset`.
  virtual sim::Task<void> WriteAsync(sim::SimThread& thread,
                                     std::uint64_t src_addr,
                                     std::uint64_t offset, std::uint32_t len,
                                     CompletionFn done) = 0;

  // Completion pump, called periodically by application threads (FASTER's
  // CompletePending()). Sync devices make this a no-op.
  virtual sim::Task<void> Poll(sim::SimThread& thread) = 0;
};

// Upper bound: "remote" data is actually in compute-node DRAM.
class LocalMemoryDevice : public IDevice {
 public:
  LocalMemoryDevice(SparseMemory& memory, std::uint64_t base)
      : memory_(&memory), base_(base) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    co_await thread.Work(rdma::cost::LocalRecordCost(len),
                         sim::CpuCategory::kCompute);
    std::vector<std::uint8_t> buf(len);
    memory_->Read(base_ + offset, buf);
    memory_->Write(dest_addr, buf);
    done();
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    co_await thread.Work(rdma::cost::CopyCost(len), sim::CpuCategory::kCompute);
    std::vector<std::uint8_t> buf(len);
    memory_->Read(src_addr, buf);
    memory_->Write(base_ + offset, buf);
    done();
  }

  sim::Task<void> Poll(sim::SimThread&) override { co_return; }

 private:
  SparseMemory* memory_;
  std::uint64_t base_;
};

// Local SATA SSD (FASTER's default backend): 6 Gb/s of device bandwidth
// shared across threads, ~80 us access latency, and a kernel I/O submission
// path that costs real CPU per operation.
class SsdDevice : public IDevice {
 public:
  static constexpr BitRate kBandwidth = BitRate::Gbps(6);
  static constexpr Nanos kAccessLatency = Micros(80);
  // SATA SSDs are IOPS-bound on small random accesses (~90k IOPS): every
  // command occupies the device for at least this long, regardless of size.
  static constexpr Nanos kMinService = Micros(11);
  // Syscall + block layer + interrupt.
  static constexpr Nanos kSubmitCpu = Micros(1.5);
  static constexpr Nanos kCompleteCpu = 400;  // completion reap per I/O

  SsdDevice(sim::Simulation& sim, SparseMemory& memory, std::uint64_t base)
      : sim_(&sim), memory_(&memory), base_(base), completions_(sim) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    co_await thread.Work(kSubmitCpu, sim::CpuCategory::kCommunication);
    Submit(Job{true, offset, dest_addr, len, std::move(done)});
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    co_await thread.Work(kSubmitCpu, sim::CpuCategory::kCommunication);
    Submit(Job{false, offset, src_addr, len, std::move(done)});
  }

  sim::Task<void> Poll(sim::SimThread& thread) override {
    while (auto done = completions_.TryReceive()) {
      co_await thread.Work(kCompleteCpu, sim::CpuCategory::kCommunication);
      (*done)();
    }
  }

 private:
  struct Job {
    bool is_read;
    std::uint64_t offset;
    std::uint64_t host_addr;
    std::uint32_t len;
    CompletionFn done;
  };

  void Submit(Job job) {
    queue_.push_back(std::move(job));
    if (!busy_) StartNext();
  }

  void StartNext() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    const Nanos service =
        std::max(kMinService, kBandwidth.TransmitTime(job.len));
    // The device is occupied for the transfer time; access latency overlaps
    // with queueing of subsequent requests (NCQ-style).
    sim_->ScheduleAfter(service, [this] { StartNext(); });
    sim_->ScheduleAfter(service + kAccessLatency,
                        [this, job = std::move(job)]() mutable {
                          std::vector<std::uint8_t> buf(job.len);
                          if (job.is_read) {
                            memory_->Read(base_ + job.offset, buf);
                            memory_->Write(job.host_addr, buf);
                          } else {
                            memory_->Read(job.host_addr, buf);
                            memory_->Write(base_ + job.offset, buf);
                          }
                          completions_.Send(std::move(job.done));
                        });
  }

  sim::Simulation* sim_;
  SparseMemory* memory_;
  std::uint64_t base_;
  std::deque<Job> queue_;
  bool busy_ = false;
  sim::Channel<CompletionFn> completions_;
};

}  // namespace cowbird::faster
