// Two-sided RDMA baseline: SEND/RECV RPC to a server thread on the memory
// pool. Used by the Figure 1/8 "Two-sided RDMA (sync)" series.
#pragma once

#include <cstdint>
#include <memory>

#include "baselines/rpc_wire.h"
#include "rdma/device.h"
#include "rdma/qp.h"
#include "rdma/verbs.h"
#include "sim/sync.h"
#include "sim/thread.h"

namespace cowbird::baselines {

// Server side: one coroutine per connection, event-driven on the recv CQ.
// (The real server busy-polls; we do not account memory-pool CPU, so the
// event-driven form is equivalent and keeps the event queue bounded.)
class TwoSidedServer {
 public:
  TwoSidedServer(rdma::Device& device, sim::Machine& machine)
      : device_(&device), machine_(&machine) {}

  // Starts serving a connected QP. `conn_index` selects a disjoint buffer
  // range so multiple connections can be served concurrently.
  void Serve(rdma::QueuePair* qp, rdma::CompletionQueue* recv_cq,
             int conn_index);

 private:
  sim::Task<void> ServeLoop(rdma::QueuePair* qp,
                            std::shared_ptr<sim::Channel<rdma::Cqe>> arrivals,
                            std::shared_ptr<sim::SimThread> server_thread,
                            int conn_index);

  rdma::Device* device_;
  sim::Machine* machine_;
};

// Client side: synchronous RPC — post the request (unsignaled SEND), spin on
// the recv CQ, copy the payload out. All of it charged to the calling
// compute-node thread; this is the 80%+ communication ratio of Figure 10.
class TwoSidedClient {
 public:
  TwoSidedClient(rdma::Device& device, rdma::QueuePair* qp,
                 rdma::CompletionQueue* recv_cq, int conn_index);

  // Synchronous read of `length` bytes at `remote_addr` into `local_dest`.
  sim::Task<void> Read(sim::SimThread& thread, std::uint64_t remote_addr,
                       std::uint64_t local_dest, std::uint32_t length);

  // Synchronous write.
  sim::Task<void> Write(sim::SimThread& thread, std::uint64_t local_src,
                        std::uint64_t remote_addr, std::uint32_t length);

 private:
  sim::Task<void> Call(sim::SimThread& thread, RpcOp op,
                       std::uint64_t remote_addr, std::uint64_t local_addr,
                       std::uint32_t length);

  rdma::Device* device_;
  rdma::QueuePair* qp_;
  rdma::CompletionQueue* recv_cq_;
  std::uint64_t recv_addr_;
  std::uint64_t send_addr_;
  std::uint64_t next_cookie_ = 1;
};

}  // namespace cowbird::baselines
