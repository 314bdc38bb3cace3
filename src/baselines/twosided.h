// Two-sided RDMA baseline: SEND/RECV RPC to a server thread on the memory
// pool. Used by the Figure 1/8 "Two-sided RDMA (sync)" series.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

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
// Everything in a request comes off the wire, so each one is checked before
// it touches memory; a refused request is counted and gets no response.
class TwoSidedServer {
 public:
  // Serves reads and writes inside `pool`, an MR of `device`. The server
  // must be destroyed before `machine`.
  TwoSidedServer(rdma::Device& device, sim::Machine& machine,
                 const rdma::MemoryRegion& pool)
      : device_(&device), machine_(&machine), pool_(&pool) {}
  TwoSidedServer(const TwoSidedServer&) = delete;
  TwoSidedServer& operator=(const TwoSidedServer&) = delete;

  // Starts serving a connected QP. `conn_index` selects a disjoint buffer
  // range so multiple connections can be served concurrently.
  void Serve(rdma::QueuePair* qp, rdma::CompletionQueue* recv_cq,
             int conn_index);

  // Requests refused: shorter than a header, an unknown op, a span outside
  // the pool, a read whose response overflows one slot, or a write whose
  // payload runs past the bytes received.
  std::uint64_t rejected_requests() const { return rejected_requests_; }

 private:
  // One connection's receive completions and the memory-pool thread that
  // serves them, owned here so neither outlives the server.
  struct Connection {
    explicit Connection(sim::Machine& machine)
        : arrivals(machine.simulation()), thread(machine, "rpc-server") {}
    sim::Channel<rdma::Cqe> arrivals;
    sim::SimThread thread;
  };

  sim::Task<void> ServeLoop(rdma::QueuePair& qp, Connection& conn,
                            int conn_index);
  bool Serves(const RpcRequest& request, std::uint32_t byte_len) const;

  rdma::Device* device_;
  sim::Machine* machine_;
  const rdma::MemoryRegion* pool_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t rejected_requests_ = 0;
};

// Client side: synchronous RPC — post the request (unsignaled SEND), spin on
// the recv CQ, copy the payload out. All of it charged to the calling
// compute-node thread; this is the 80%+ communication ratio of Figure 10.
class TwoSidedClient {
 public:
  TwoSidedClient(rdma::Device& device, rdma::QueuePair* qp,
                 rdma::CompletionQueue* recv_cq, int conn_index);

  // Synchronous read of `length` bytes at `remote_addr` into `local_dest`.
  // A call's request and its response must each fit one 8 KiB slot.
  sim::Task<void> Read(sim::SimThread& thread, std::uint64_t remote_addr,
                       std::uint64_t local_dest, std::uint32_t length);

  // Synchronous write.
  sim::Task<void> Write(sim::SimThread& thread, std::uint64_t local_src,
                        std::uint64_t remote_addr, std::uint32_t length);

  // Responses received that were not the outstanding call's (its cookie,
  // payload length and received bytes must all match), recycled unread.
  std::uint64_t ignored_responses() const { return ignored_responses_; }

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
  std::uint64_t ignored_responses_ = 0;
};

}  // namespace cowbird::baselines
