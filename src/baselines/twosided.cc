#include "baselines/twosided.h"

#include <vector>

#include "common/check.h"
#include "rdma/params.h"

namespace cowbird::baselines {

namespace {
// RPC buffers: every connection owns a run of fixed-size slots in each
// direction, at base + conn_index * kSlotBytes * slots.
constexpr std::uint32_t kSlotBytes = 8192;
// Server side (memory pool).
constexpr std::uint64_t kServerRecvBase = 0x7000'0000;
constexpr std::uint64_t kServerSendBase = 0x7100'0000;
constexpr int kServerSlots = 8;
// Client side (compute node).
constexpr std::uint64_t kClientRecvBase = 0x7200'0000;
constexpr std::uint64_t kClientSendBase = 0x7300'0000;
constexpr int kClientSlots = 4;

std::uint64_t ConnBase(std::uint64_t base, int conn_index, int slots) {
  return base + static_cast<std::uint64_t>(conn_index) * kSlotBytes * slots;
}
}  // namespace

void TwoSidedServer::Serve(rdma::QueuePair* qp,
                           rdma::CompletionQueue* recv_cq, int conn_index) {
  auto arrivals =
      std::make_shared<sim::Channel<rdma::Cqe>>(device_->simulation());
  recv_cq->SetCompletionCallback([recv_cq, arrivals] {
    while (auto cqe = recv_cq->Pop()) arrivals->Send(*cqe);
  });
  // Pre-post the receive window.
  const std::uint64_t base =
      ConnBase(kServerRecvBase, conn_index, kServerSlots);
  for (int i = 0; i < kServerSlots; ++i) {
    qp->PostRecv(rdma::RecvWqe{
        static_cast<std::uint64_t>(i),
        base + static_cast<std::uint64_t>(i) * kSlotBytes, kSlotBytes});
  }
  device_->simulation().Spawn(ServeLoop(
      qp, arrivals, std::make_shared<sim::SimThread>(*machine_, "rpc-server"),
      conn_index));
}

sim::Task<void> TwoSidedServer::ServeLoop(
    rdma::QueuePair* qp, std::shared_ptr<sim::Channel<rdma::Cqe>> arrivals,
    std::shared_ptr<sim::SimThread> server_thread, int conn_index) {
  auto& mem = device_->memory();
  const std::uint64_t recv_base =
      ConnBase(kServerRecvBase, conn_index, kServerSlots);
  const std::uint64_t send_base =
      ConnBase(kServerSendBase, conn_index, kServerSlots);
  int send_slot = 0;
  for (;;) {
    const rdma::Cqe cqe = co_await arrivals->Receive();
    COWBIRD_CHECK(cqe.opcode == rdma::CqeOpcode::kRecv);
    // Server-side CPU (memory-pool cores, not the compute node's): poll the
    // recv CQ, process, post the response.
    co_await server_thread->Work(rdma::cost::PollTotal(),
                                 sim::CpuCategory::kCommunication);
    const std::uint64_t slot_addr = recv_base + cqe.wr_id * kSlotBytes;
    std::vector<std::uint8_t> header(RpcRequest::kHeaderBytes);
    mem.Read(slot_addr, header);
    const RpcRequest request = RpcRequest::ParseHeader(header);

    const std::uint64_t out_addr =
        send_base + static_cast<std::uint64_t>(send_slot) * kSlotBytes;
    send_slot = (send_slot + 1) % kServerSlots;
    RpcResponse response;
    response.client_cookie = request.client_cookie;

    if (request.op == RpcOp::kRead) {
      // Copy requested bytes after the response header.
      response.payload_length = request.length;
      std::vector<std::uint8_t> payload(request.length);
      mem.Read(request.remote_addr, payload);
      std::vector<std::uint8_t> hdr(RpcResponse::kHeaderBytes);
      response.SerializeHeader(hdr);
      mem.Write(out_addr, hdr);
      mem.Write(out_addr + RpcResponse::kHeaderBytes, payload);
    } else {
      // Payload follows the request header; apply it.
      std::vector<std::uint8_t> payload(request.length);
      mem.Read(slot_addr + RpcRequest::kHeaderBytes, payload);
      mem.Write(request.remote_addr, payload);
      response.payload_length = 0;
      std::vector<std::uint8_t> hdr(RpcResponse::kHeaderBytes);
      response.SerializeHeader(hdr);
      mem.Write(out_addr, hdr);
    }

    // Recycle the receive slot, then answer.
    co_await server_thread->Work(
        rdma::cost::CopyCost(request.length) + rdma::cost::PostTotal(),
        sim::CpuCategory::kCommunication);
    qp->PostRecv(rdma::RecvWqe{cqe.wr_id, slot_addr, kSlotBytes});
    qp->PostSend(rdma::SendWqe{
        rdma::WqeOp::kSend, /*wr_id=*/0, out_addr, 0, 0,
        static_cast<std::uint32_t>(RpcResponse::kHeaderBytes +
                                   response.payload_length),
        /*signaled=*/false});
  }
}

TwoSidedClient::TwoSidedClient(rdma::Device& device, rdma::QueuePair* qp,
                               rdma::CompletionQueue* recv_cq, int conn_index)
    : device_(&device),
      qp_(qp),
      recv_cq_(recv_cq),
      recv_addr_(ConnBase(kClientRecvBase, conn_index, kClientSlots)),
      send_addr_(ConnBase(kClientSendBase, conn_index, kClientSlots)) {
  for (int i = 0; i < kClientSlots; ++i) {
    qp_->PostRecv(rdma::RecvWqe{
        static_cast<std::uint64_t>(i),
        recv_addr_ + static_cast<std::uint64_t>(i) * kSlotBytes, kSlotBytes});
  }
}

sim::Task<void> TwoSidedClient::Read(sim::SimThread& thread,
                                     std::uint64_t remote_addr,
                                     std::uint64_t local_dest,
                                     std::uint32_t length) {
  co_await Call(thread, RpcOp::kRead, remote_addr, local_dest, length);
}

sim::Task<void> TwoSidedClient::Write(sim::SimThread& thread,
                                      std::uint64_t local_src,
                                      std::uint64_t remote_addr,
                                      std::uint32_t length) {
  co_await Call(thread, RpcOp::kWrite, remote_addr, local_src, length);
}

sim::Task<void> TwoSidedClient::Call(sim::SimThread& thread, RpcOp op,
                                     std::uint64_t remote_addr,
                                     std::uint64_t local_addr,
                                     std::uint32_t length) {
  auto& mem = device_->memory();
  RpcRequest request;
  request.op = op;
  request.remote_addr = remote_addr;
  request.length = length;
  request.client_cookie = next_cookie_++;

  std::vector<std::uint8_t> hdr(RpcRequest::kHeaderBytes);
  request.SerializeHeader(hdr);
  mem.Write(send_addr_, hdr);
  std::uint32_t send_len = RpcRequest::kHeaderBytes;
  if (op == RpcOp::kWrite) {
    std::vector<std::uint8_t> payload(length);
    mem.Read(local_addr, payload);
    mem.Write(send_addr_ + RpcRequest::kHeaderBytes, payload);
    co_await thread.Work(rdma::cost::CopyCost(length),
                         sim::CpuCategory::kCommunication);
    send_len += length;
  }

  co_await rdma::PostSendVerb(thread, *qp_,
                              rdma::SendWqe{rdma::WqeOp::kSend, 0,
                                            send_addr_, 0, 0, send_len,
                                            /*signaled=*/false});
  // Spin on the recv CQ for the response (the synchronous path).
  const rdma::Cqe cqe = co_await rdma::BusyPollCqVerb(thread, *recv_cq_);
  COWBIRD_CHECK(cqe.opcode == rdma::CqeOpcode::kRecv);
  const std::uint64_t slot_addr = recv_addr_ + cqe.wr_id * kSlotBytes;
  std::vector<std::uint8_t> rhdr(RpcResponse::kHeaderBytes);
  mem.Read(slot_addr, rhdr);
  const RpcResponse response = RpcResponse::ParseHeader(rhdr);
  COWBIRD_CHECK(response.client_cookie == request.client_cookie);
  if (op == RpcOp::kRead) {
    std::vector<std::uint8_t> payload(response.payload_length);
    mem.Read(slot_addr + RpcResponse::kHeaderBytes, payload);
    mem.Write(local_addr, payload);
    co_await thread.Work(rdma::cost::CopyCost(response.payload_length),
                         sim::CpuCategory::kCommunication);
  }
  // Recycle the receive slot.
  qp_->PostRecv(rdma::RecvWqe{cqe.wr_id, slot_addr, kSlotBytes});
}

}  // namespace cowbird::baselines
