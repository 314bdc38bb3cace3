// One-sided RDMA baselines (Figures 1, 8, 9, 13).
//
// Sync: post a read/write, spin on the CQ until it completes — one verb pair
// per access, the slowest and simplest path.
// Async: keep up to `window` operations in flight per thread, posting and
// polling in a pipeline (batch size 100 in the paper's evaluation); hides
// fabric latency but still pays the full verb CPU cost per operation.
#pragma once

#include <cstdint>

#include "rdma/device.h"
#include "rdma/qp.h"
#include "rdma/verbs.h"
#include "sim/thread.h"

namespace cowbird::baselines {

struct OneSidedEndpoint {
  rdma::QueuePair* qp = nullptr;
  rdma::CompletionQueue* cq = nullptr;
  std::uint32_t rkey = 0;  // pool MR
};

inline sim::Task<void> SyncRead(sim::SimThread& thread, OneSidedEndpoint& ep,
                                std::uint64_t remote_addr,
                                std::uint64_t local_dest,
                                std::uint32_t length) {
  co_await rdma::PostSendVerb(thread, *ep.qp,
                              rdma::SendWqe{rdma::WqeOp::kRead, 0, local_dest,
                                            remote_addr, ep.rkey, length,
                                            true});
  (void)co_await rdma::BusyPollCqVerb(thread, *ep.cq);
}

inline sim::Task<void> SyncWrite(sim::SimThread& thread, OneSidedEndpoint& ep,
                                 std::uint64_t local_src,
                                 std::uint64_t remote_addr,
                                 std::uint32_t length) {
  co_await rdma::PostSendVerb(thread, *ep.qp,
                              rdma::SendWqe{rdma::WqeOp::kWrite, 0, local_src,
                                            remote_addr, ep.rkey, length,
                                            true});
  (void)co_await rdma::BusyPollCqVerb(thread, *ep.cq);
}

// Asynchronous pipeline over one endpoint. The caller issues operations
// (each pays the post cost immediately) and harvests completions (each
// check pays a poll). `outstanding()` drives window management.
class AsyncPipeline {
 public:
  AsyncPipeline(OneSidedEndpoint ep, int window) : ep_(ep), window_(window) {}

  int window() const { return window_; }
  int outstanding() const { return outstanding_; }
  bool CanIssue() const { return outstanding_ < window_; }

  sim::Task<void> IssueRead(sim::SimThread& thread, std::uint64_t remote_addr,
                            std::uint64_t local_dest, std::uint32_t length,
                            std::uint64_t wr_id = 0) {
    ++outstanding_;
    co_await rdma::PostSendVerb(
        thread, *ep_.qp,
        rdma::SendWqe{rdma::WqeOp::kRead, wr_id, local_dest, remote_addr,
                      ep_.rkey, length, true});
  }

  sim::Task<void> IssueWrite(sim::SimThread& thread, std::uint64_t local_src,
                             std::uint64_t remote_addr, std::uint32_t length,
                             std::uint64_t wr_id = 0) {
    ++outstanding_;
    co_await rdma::PostSendVerb(
        thread, *ep_.qp,
        rdma::SendWqe{rdma::WqeOp::kWrite, wr_id, local_src, remote_addr,
                      ep_.rkey, length, true});
  }

  // One poll check; returns the completion if any.
  sim::Task<std::optional<rdma::Cqe>> Poll(sim::SimThread& thread) {
    auto cqe = co_await rdma::PollCqVerb(thread, *ep_.cq);
    if (cqe.has_value()) --outstanding_;
    co_return cqe;
  }

 private:
  OneSidedEndpoint ep_;
  int window_;
  int outstanding_ = 0;
};

}  // namespace cowbird::baselines
