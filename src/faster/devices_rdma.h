// IDevice backends over the fabric: one-sided RDMA (sync/async), Cowbird,
// and Redy. Each instance is per-application-thread (FASTER threads own
// their I/O contexts; the paper's port creates a notification group per
// thread through poll_create()).
#pragma once

#include <deque>

#include "baselines/onesided.h"
#include "baselines/redy.h"
#include "core/client.h"
#include "faster/idevice.h"

namespace cowbird::faster {

// One-sided RDMA, synchronous: the calling thread posts and spins per I/O.
class OneSidedSyncDevice : public IDevice {
 public:
  OneSidedSyncDevice(baselines::OneSidedEndpoint ep, std::uint64_t pool_base)
      : ep_(ep), pool_base_(pool_base) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    co_await baselines::SyncRead(thread, ep_, pool_base_ + offset, dest_addr,
                                 len);
    done();
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    co_await baselines::SyncWrite(thread, ep_, src_addr, pool_base_ + offset,
                                  len);
    done();
  }

  sim::Task<void> Poll(sim::SimThread&) override { co_return; }

 private:
  baselines::OneSidedEndpoint ep_;
  std::uint64_t pool_base_;
};

// One-sided RDMA, asynchronous: up to kPipelineDepth pipelined posts,
// completions harvested from Poll(). Every operation still pays the full
// post+poll verb cost on the application thread.
class OneSidedAsyncDevice : public IDevice {
 public:
  OneSidedAsyncDevice(baselines::OneSidedEndpoint ep, std::uint64_t pool_base)
      : pipeline_(ep, kPipelineDepth), pool_base_(pool_base) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    while (!pipeline_.CanIssue()) co_await Poll(thread);
    pending_.push_back(std::move(done));
    co_await pipeline_.IssueRead(thread, pool_base_ + offset, dest_addr,
                                 len);
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    while (!pipeline_.CanIssue()) co_await Poll(thread);
    pending_.push_back(std::move(done));
    co_await pipeline_.IssueWrite(thread, src_addr, pool_base_ + offset,
                                  len);
  }

  sim::Task<void> Poll(sim::SimThread& thread) override {
    // Harvest whatever has completed (RC completes in order).
    for (;;) {
      auto cqe = co_await pipeline_.Poll(thread);
      if (!cqe.has_value()) break;
      COWBIRD_CHECK(!pending_.empty());
      CompletionFn done = std::move(pending_.front());
      pending_.pop_front();
      done();
    }
  }

 private:
  baselines::AsyncPipeline pipeline_;
  std::uint64_t pool_base_;
  std::deque<CompletionFn> pending_;
};

// Cowbird: the IDevice instantiation of Section 7. async_read/async_write
// plus a per-thread notification group; Poll() is poll_wait with a zero
// timeout.
class CowbirdDevice : public IDevice {
 public:
  CowbirdDevice(core::CowbirdClient::ThreadContext& ctx,
                std::uint16_t region_id)
      : ctx_(&ctx), region_(region_id), poll_(ctx.PollCreate()) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    for (;;) {
      auto id = co_await ctx_->AsyncRead(thread, region_, offset, dest_addr,
                                         len);
      if (id.has_value()) {
        ctx_->PollAdd(poll_, *id);
        pending_reads_.push_back(std::move(done));
        co_return;
      }
      co_await Poll(thread);  // rings full: drain completions, retry
      co_await thread.Idle(200);
    }
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    for (;;) {
      auto id = co_await ctx_->AsyncWrite(thread, region_, src_addr, offset,
                                          len);
      if (id.has_value()) {
        ctx_->PollAdd(poll_, *id);
        pending_writes_.push_back(std::move(done));
        co_return;
      }
      co_await Poll(thread);
      co_await thread.Idle(200);
    }
  }

  sim::Task<void> Poll(sim::SimThread& thread) override {
    auto completed = co_await ctx_->PollWait(thread, poll_, 64, 0);
    for (const core::ReqId& id : completed) {
      // Cowbird is per-type FIFO: match callbacks by operation type.
      auto& queue = id.type() == core::RwType::kRead ? pending_reads_
                                                     : pending_writes_;
      COWBIRD_CHECK(!queue.empty());
      CompletionFn done = std::move(queue.front());
      queue.pop_front();
      done();
    }
  }

 private:
  core::CowbirdClient::ThreadContext* ctx_;
  std::uint16_t region_;
  core::PollId poll_;
  std::deque<CompletionFn> pending_reads_;
  std::deque<CompletionFn> pending_writes_;
};

// Redy: requests hop to a pinned I/O thread on the compute node.
class RedyDevice : public IDevice {
 public:
  RedyDevice(baselines::RedyEngine& engine, int io_index,
             std::uint64_t pool_base, sim::Simulation& sim)
      : engine_(&engine), io_index_(io_index), pool_base_(pool_base),
        completions_(sim) {}

  sim::Task<void> ReadAsync(sim::SimThread& thread, std::uint64_t offset,
                            std::uint64_t dest_addr, std::uint32_t len,
                            CompletionFn done) override {
    pending_.push_back(std::move(done));
    co_await engine_->Submit(
        thread, io_index_,
        baselines::RedyEngine::Request{true, pool_base_ + offset, dest_addr,
                                       len, [this] {
                                         completions_.Send(true);
                                       }});
  }

  sim::Task<void> WriteAsync(sim::SimThread& thread, std::uint64_t src_addr,
                             std::uint64_t offset, std::uint32_t len,
                             CompletionFn done) override {
    pending_.push_back(std::move(done));
    co_await engine_->Submit(
        thread, io_index_,
        baselines::RedyEngine::Request{false, pool_base_ + offset, src_addr,
                                       len, [this] {
                                         completions_.Send(true);
                                       }});
  }

  sim::Task<void> Poll(sim::SimThread& thread) override {
    while (completions_.TryReceive()) {
      // Completion notification check on the app side.
      co_await thread.Work(30, sim::CpuCategory::kCommunication);
      COWBIRD_CHECK(!pending_.empty());
      CompletionFn done = std::move(pending_.front());
      pending_.pop_front();
      done();
    }
  }

 private:
  baselines::RedyEngine* engine_;
  int io_index_;
  std::uint64_t pool_base_;
  sim::Channel<bool> completions_;
  std::deque<CompletionFn> pending_;
};

}  // namespace cowbird::faster
