// Redy model (Figure 11 comparison).
//
// Redy [47] reaches high RDMA throughput by batching requests on dedicated
// I/O threads that are *pinned to compute-node cores* and spin for work.
// Structurally: each application thread hands requests to a companion I/O
// thread over a shared queue; the I/O thread batches them into asynchronous
// one-sided verbs and completes them back. The verbs CPU cost therefore
// moves off the application thread — but onto another core of the SAME
// machine. That is the property Figure 11 isolates: past ~half the cores,
// Redy's I/O threads and the application fight for CPUs, while Cowbird's
// engine lives on a different box entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/onesided.h"
#include "sim/sync.h"
#include "sim/thread.h"

namespace cowbird::baselines {

class RedyEngine {
 public:
  // Async verbs in flight per I/O thread: the FASTER YCSB pipeline depth,
  // so an I/O thread never throttles below what its app thread keeps open.
  static constexpr int kWindow = 32;
  // App-side cost to hand off one request.
  static constexpr Nanos kEnqueueCost = 60;

  struct Request {
    bool is_read = true;
    std::uint64_t remote_addr = 0;
    std::uint64_t local_addr = 0;
    std::uint32_t length = 0;
    std::function<void()> done;  // invoked in engine context
  };

  // One I/O thread per endpoint; each permanently occupies a compute core
  // (pinned + spinning).
  explicit RedyEngine(sim::Machine& compute_machine)
      : machine_(&compute_machine) {}

  // Adds an I/O thread bound to `ep` and returns its queue index.
  int AddIoThread(OneSidedEndpoint ep) {
    auto worker =
        std::make_unique<Worker>(machine_->simulation(), *machine_, ep);
    machine_->AddPinnedLoad(1);  // the core burns whether or not work exists
    workers_.push_back(std::move(worker));
    workers_.back()->Start();
    return static_cast<int>(workers_.size()) - 1;
  }

  // Application-side submit: a queue hand-off, charged to the app thread.
  sim::Task<void> Submit(sim::SimThread& app_thread, int io_index,
                         Request request) {
    co_await app_thread.Work(kEnqueueCost, sim::CpuCategory::kCommunication);
    Worker& worker = *workers_[io_index];
    worker.queue.push_back(std::move(request));
    worker.wake.Send(true);
  }

  std::uint64_t ops_completed() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->completed;
    return total;
  }

 private:
  struct Worker {
    Worker(sim::Simulation& sim, sim::Machine& machine, OneSidedEndpoint ep)
        : wake(sim),
          thread(machine, "redy-io"),
          pipeline(ep, kWindow),
          endpoint(ep) {}

    void Start() {
      endpoint.cq->SetCompletionCallback([this] { wake.Send(true); });
      thread.simulation().Spawn(Loop());
    }

    sim::Task<void> Loop() {
      std::deque<Request> inflight;
      for (;;) {
        // Drain submissions while the window allows.
        bool progressed = false;
        while (pipeline.CanIssue() && !queue.empty()) {
          Request request = std::move(queue.front());
          queue.pop_front();
          if (request.is_read) {
            co_await pipeline.IssueRead(thread, request.remote_addr,
                                        request.local_addr, request.length);
          } else {
            co_await pipeline.IssueWrite(thread, request.local_addr,
                                         request.remote_addr,
                                         request.length);
          }
          inflight.push_back(std::move(request));
          progressed = true;
        }
        // Harvest completions (RC: in order).
        for (;;) {
          auto cqe = co_await pipeline.Poll(thread);
          if (!cqe.has_value()) break;
          COWBIRD_CHECK(!inflight.empty());
          Request done = std::move(inflight.front());
          inflight.pop_front();
          ++completed;
          if (done.done) done.done();
          progressed = true;
        }
        if (!progressed) {
          // Nothing to do: sleep until a submission or a completion wakes
          // us. Wakes are level-triggered (a stale wake just re-scans), so
          // a submission racing with this check cannot be lost. The pinned
          // core burns regardless (AddPinnedLoad models the spin).
          (void)co_await wake.Receive();
        }
      }
    }

    std::deque<Request> queue;
    sim::Channel<bool> wake;
    sim::SimThread thread;
    AsyncPipeline pipeline;
    OneSidedEndpoint endpoint;
    std::uint64_t completed = 0;
  };

  sim::Machine* machine_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cowbird::baselines
