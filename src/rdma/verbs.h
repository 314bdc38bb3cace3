// CPU-charged verb wrappers.
//
// The raw QueuePair/CompletionQueue interfaces model what the NIC does; the
// functions here model what the *CPU* pays to ask for it (Figure 2): locks,
// WQE marshalling, doorbell MMIO for a post; lock and CQE check for a poll.
// Every baseline in the evaluation (sync/async one-sided, two-sided, Redy)
// calls through these wrappers from a SimThread; Cowbird never does — its
// client library touches only local memory.
#pragma once

#include <optional>
#include <span>

#include "rdma/params.h"
#include "rdma/qp.h"
#include "sim/task.h"
#include "sim/thread.h"

namespace cowbird::rdma {

// ibv_post_send analogue: charges lock + WQE build + doorbell.
inline sim::Task<void> PostSendVerb(sim::SimThread& thread, QueuePair& qp,
                                    SendWqe wqe) {
  co_await thread.Work(cost::kPostLock + cost::kPostWqe,
                       sim::CpuCategory::kCommunication);
  qp.PostSend(wqe);
  co_await thread.Work(cost::kPostDoorbell, sim::CpuCategory::kCommunication);
}

// One ibv_poll_cq check: charges the lock + CQE read whether or not a
// completion is found (the paper's Figure 2 measures exactly this floor).
inline sim::Task<std::optional<Cqe>> PollCqVerb(sim::SimThread& thread,
                                                CompletionQueue& cq) {
  co_await thread.Work(cost::PollTotal(), sim::CpuCategory::kCommunication);
  co_return cq.Pop();
}

// Busy-poll until a completion arrives; the CPU burns a full poll cost per
// check, exactly like a spin loop on a real completion queue.
inline sim::Task<Cqe> BusyPollCqVerb(sim::SimThread& thread,
                                     CompletionQueue& cq) {
  for (;;) {
    auto cqe = co_await PollCqVerb(thread, cq);
    if (cqe.has_value()) co_return *cqe;
  }
}

// Engine-tier batched post: the dedicated single-threaded agent loop pays
// no lock and an amortized doorbell (see cost::kEnginePostFixed).
inline sim::Task<void> EnginePostBatchVerb(sim::SimThread& thread,
                                           QueuePair& qp,
                                           std::span<const SendWqe> wqes) {
  if (wqes.empty()) co_return;
  co_await thread.Work(cost::EnginePostBatch(static_cast<int>(wqes.size())),
                       sim::CpuCategory::kCommunication);
  for (const SendWqe& wqe : wqes) qp.PostSend(wqe);
}

}  // namespace cowbird::rdma
