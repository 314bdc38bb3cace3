#include "rdma/qp.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cowbird::rdma {

namespace {

Opcode ReadResponseOpcode(std::uint32_t index, std::uint32_t count) {
  if (count == 1) return Opcode::kReadResponseOnly;
  if (index == 0) return Opcode::kReadResponseFirst;
  return index == count - 1 ? Opcode::kReadResponseLast
                            : Opcode::kReadResponseMiddle;
}

}  // namespace

QueuePair::QueuePair(Device& device, std::uint32_t qpn,
                     CompletionQueue* send_cq, CompletionQueue* recv_cq)
    : device_(&device), qpn_(qpn), send_cq_(send_cq), recv_cq_(recv_cq) {
  COWBIRD_CHECK(send_cq != nullptr);
}

void QueuePair::Connect(net::NodeId remote_node, std::uint32_t remote_qpn,
                        std::uint32_t my_start_psn,
                        std::uint32_t peer_start_psn) {
  remote_node_ = remote_node;
  remote_qpn_ = remote_qpn;
  reliability_.set_start_psn(my_start_psn);
  epsn_ = peer_start_psn & kPsnMask;
  connected_ = true;
}

void QueuePair::PostSend(SendWqe wqe) {
  COWBIRD_CHECK(connected_);
  COWBIRD_CHECK(wqe.length > 0);
  if (halted_) return;
  reliability_.Enqueue(wqe);
}

void QueuePair::Halt() {
  halted_ = true;
  reliability_.Halt();
  recv_queue_.clear();
  recv_active_ = false;
}

void QueuePair::PostRecv(RecvWqe wqe) { recv_queue_.push_back(wqe); }

// ---------------------------------------------------------------------------
// Responder side
// ---------------------------------------------------------------------------

void QueuePair::HandlePacket(const net::Packet& packet,
                             const RdmaMessageView& view) {
  (void)packet;
  if (halted_) return;
  const Opcode op = view.bth.opcode;
  if (IsReadResponse(op)) {
    reliability_.HandleReadResponse(view);
    return;
  }
  if (op == Opcode::kAcknowledge) {
    reliability_.HandleAck(view);
    return;
  }
  HandleRequest(view);
}

void QueuePair::HandleRequest(const RdmaMessageView& view) {
  const std::uint32_t psn = view.bth.psn;
  const std::int32_t distance = PsnDistance(psn, epsn_);
  const Opcode op = view.bth.opcode;

  if (distance < 0) {
    // Duplicate from a Go-Back-N retransmission. Reads are re-executed
    // (idempotent); writes/sends are *not* re-applied — only re-ACKed so the
    // requester can make progress.
    if (op == Opcode::kReadRequest) {
      COWBIRD_CHECK(view.reth.has_value());
      ExecuteReadRequest(view, /*duplicate=*/true);
    } else if (view.bth.ack_request || IsLastOrOnly(op)) {
      SendAck(kSyndromeAck, PsnAdd(epsn_, kPsnMask));  // epsn − 1
    }
    return;
  }
  if (distance > 0) {
    // Sequence gap: NAK once, drop everything until the requester rewinds.
    if (!nak_outstanding_) {
      SendAck(kSyndromeNakSequenceError, epsn_);
      nak_outstanding_ = true;
    }
    return;
  }

  nak_outstanding_ = false;
  switch (op) {
    case Opcode::kWriteFirst:
    case Opcode::kWriteOnly: {
      COWBIRD_CHECK(view.reth.has_value());
      const MemoryRegion* mr = device_->LookupRkey(view.reth->rkey);
      if (mr == nullptr ||
          !mr->Contains(view.reth->vaddr, view.reth->dma_length)) {
        SendAck(kSyndromeNakRemoteAccess, epsn_);
        return;
      }
      write_target_ = view.reth->vaddr;
      write_remaining_ = view.reth->dma_length;
      write_active_ = true;
      [[fallthrough]];
    }
    case Opcode::kWriteMiddle:
    case Opcode::kWriteLast: {
      // Only inside the span the WRITE_FIRST/ONLY validated.
      if (!write_active_ || view.payload.size() > write_remaining_) {
        RejectRequest();
        return;
      }
      device_->memory().Write(write_target_, view.payload);
      device_->NotifyWrite(write_target_,
                           static_cast<std::uint32_t>(view.payload.size()));
      write_target_ += view.payload.size();
      write_remaining_ -= static_cast<std::uint32_t>(view.payload.size());
      epsn_ = PsnAdd(epsn_, 1);
      if (IsLastOrOnly(op)) {
        write_active_ = false;
        ++msn_;
        if (view.bth.ack_request) SendAck(kSyndromeAck, psn);
      }
      return;
    }
    case Opcode::kReadRequest: {
      COWBIRD_CHECK(view.reth.has_value());
      ExecuteReadRequest(view, /*duplicate=*/false);
      return;
    }
    case Opcode::kSendFirst:
    case Opcode::kSendOnly: {
      if (recv_queue_.empty()) {
        // Receiver not ready: NAK so the requester retries the message.
        SendAck(kSyndromeRnrNak, epsn_);
        return;
      }
      // A refused first packet leaves the receive posted.
      if (view.payload.size() > recv_queue_.front().length) {
        RejectRequest();
        return;
      }
      active_recv_ = recv_queue_.front();
      recv_queue_.pop_front();
      recv_active_ = true;
      send_received_ = 0;
      [[fallthrough]];
    }
    case Opcode::kSendMiddle:
    case Opcode::kSendLast: {
      if (!recv_active_) {
        SendAck(kSyndromeNakSequenceError, epsn_);
        return;
      }
      if (view.payload.size() > active_recv_.length - send_received_) {
        RejectRequest();
        return;
      }
      device_->memory().Write(active_recv_.addr + send_received_,
                              view.payload);
      send_received_ += static_cast<std::uint32_t>(view.payload.size());
      epsn_ = PsnAdd(epsn_, 1);
      if (IsLastOrOnly(op)) {
        ++msn_;
        recv_active_ = false;
        if (recv_cq_ != nullptr) {
          recv_cq_->Push(Cqe{active_recv_.wr_id, CqeOpcode::kRecv,
                             CqeStatus::kSuccess, send_received_});
        }
        if (view.bth.ack_request) SendAck(kSyndromeAck, psn);
      }
      return;
    }
    default:
      RejectRequest();
      return;
  }
}

void QueuePair::RejectRequest() {
  device_->CountMalformed();
  SendAck(kSyndromeNakRemoteAccess, epsn_);
}

void QueuePair::ExecuteReadRequest(const RdmaMessageView& view,
                                   bool duplicate) {
  const Reth& reth = *view.reth;
  const MemoryRegion* mr = device_->LookupRkey(reth.rkey);
  if (mr == nullptr || !mr->Contains(reth.vaddr, reth.dma_length)) {
    SendAck(kSyndromeNakRemoteAccess, view.bth.psn);
    return;
  }
  const std::uint32_t segments = SegmentCount(reth.dma_length);
  if (!duplicate) {
    epsn_ = PsnAdd(epsn_, segments);
    ++msn_;
  }
  for (std::uint32_t i = 0; i < segments; ++i) {
    const std::uint64_t offset = std::uint64_t{i} * kPathMtu;
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPathMtu, reth.dma_length - offset));
    const Opcode opcode = ReadResponseOpcode(i, segments);
    Aeth aeth{kSyndromeAck, msn_};
    EmitFromMemory(opcode, PsnAdd(view.bth.psn, i), /*ack_request=*/false,
                   nullptr, HasAeth(opcode) ? &aeth : nullptr,
                   reth.vaddr + offset, len);
  }
}

void QueuePair::SendAck(std::uint8_t syndrome, std::uint32_t psn) {
  Aeth aeth{syndrome, msn_};
  Bth bth;
  bth.opcode = Opcode::kAcknowledge;
  bth.dest_qp = remote_qpn_;
  bth.psn = psn & kPsnMask;
  net::Packet packet =
      BuildRdmaPacket(device_->node_id(), remote_node_,
                      net::Priority::kControl, bth, nullptr, &aeth, {});
  device_->EmitPacket(std::move(packet));
}

void QueuePair::Emit(Opcode opcode, std::uint32_t psn, bool ack_request,
                     const Reth* reth, const Aeth* aeth,
                     std::span<const std::uint8_t> payload) {
  Bth bth;
  bth.opcode = opcode;
  bth.ack_request = ack_request;
  bth.dest_qp = remote_qpn_;
  bth.psn = psn & kPsnMask;
  net::Packet packet = BuildRdmaPacket(device_->node_id(), remote_node_,
                                       net::Priority::kRdma, bth, reth, aeth,
                                       payload);
  device_->EmitPaced(qpn_, std::move(packet));
}

void QueuePair::EmitFromMemory(Opcode opcode, std::uint32_t psn,
                               bool ack_request, const Reth* reth,
                               const Aeth* aeth, std::uint64_t addr,
                               std::size_t len) {
  Bth bth;
  bth.opcode = opcode;
  bth.ack_request = ack_request;
  bth.dest_qp = remote_qpn_;
  bth.psn = psn & kPsnMask;
  std::span<std::uint8_t> payload;
  net::Packet packet = BuildRdmaPacketInPlace(
      device_->node_id(), remote_node_, net::Priority::kRdma, bth, reth, aeth,
      len, &payload);
  device_->memory().Read(addr, payload);
  device_->EmitPaced(qpn_, std::move(packet));
}

QpPair ConnectQueuePairs(Device& a, Device& b, std::uint32_t start_psn_a,
                         std::uint32_t start_psn_b) {
  QpPair pair;
  pair.a_send_cq = a.CreateCq();
  pair.a_recv_cq = a.CreateCq();
  pair.b_send_cq = b.CreateCq();
  pair.b_recv_cq = b.CreateCq();
  pair.a = a.CreateQp(pair.a_send_cq, pair.a_recv_cq);
  pair.b = b.CreateQp(pair.b_send_cq, pair.b_recv_cq);
  pair.a->Connect(b.node_id(), pair.b->qpn(), start_psn_a, start_psn_b);
  pair.b->Connect(a.node_id(), pair.a->qpn(), start_psn_b, start_psn_a);
  return pair;
}

}  // namespace cowbird::rdma
