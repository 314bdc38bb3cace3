#include "rdma/reliability.h"

#include <algorithm>

#include "common/check.h"
#include "rdma/qp.h"

namespace cowbird::rdma {

namespace {

// Go-Back-N window: maximum in-flight messages per QP.
constexpr std::size_t kMaxOutstanding = 64;

Opcode SegmentOpcode(WqeOp op, std::uint32_t index, std::uint32_t count) {
  const bool only = count == 1;
  const bool first = index == 0;
  const bool last = index == count - 1;
  switch (op) {
    case WqeOp::kWrite:
      if (only) return Opcode::kWriteOnly;
      if (first) return Opcode::kWriteFirst;
      return last ? Opcode::kWriteLast : Opcode::kWriteMiddle;
    case WqeOp::kSend:
      if (only) return Opcode::kSendOnly;
      if (first) return Opcode::kSendFirst;
      return last ? Opcode::kSendLast : Opcode::kSendMiddle;
    case WqeOp::kRead:
      break;
  }
  COWBIRD_CHECK(false);
}

CqeOpcode ToCqeOpcode(WqeOp op) {
  switch (op) {
    case WqeOp::kRead: return CqeOpcode::kRead;
    case WqeOp::kWrite: return CqeOpcode::kWrite;
    case WqeOp::kSend: return CqeOpcode::kSend;
  }
  COWBIRD_CHECK(false);
}

}  // namespace

void ReliabilityManager::Enqueue(SendWqe wqe) {
  pending_.push_back(wqe);
  TryTransmit();
}

void ReliabilityManager::Halt() {
  retransmit_timer_.Cancel();
  pending_.clear();
  inflight_.clear();
}

void ReliabilityManager::TryTransmit() {
  while (!pending_.empty() && inflight_.size() < kMaxOutstanding) {
    InflightWqe entry;
    entry.wqe = pending_.front();
    pending_.pop_front();
    entry.segments = SegmentCount(entry.wqe.length);
    entry.first_psn = next_psn_;
    entry.last_psn = PsnAdd(next_psn_, entry.segments - 1);
    next_psn_ = PsnAdd(next_psn_, entry.segments);
    inflight_.push_back(entry);
    EmitMessage(inflight_.back());
  }
  if (!inflight_.empty()) ArmTimer();
}

void ReliabilityManager::EmitMessage(const InflightWqe& entry) {
  const SendWqe& wqe = entry.wqe;
  if (wqe.op == WqeOp::kRead) {
    Reth reth{wqe.raddr, wqe.rkey, wqe.length};
    qp_->Emit(Opcode::kReadRequest, entry.first_psn, /*ack_request=*/false,
              &reth, nullptr, {});
    return;
  }
  for (std::uint32_t i = 0; i < entry.segments; ++i) {
    const std::uint64_t offset = std::uint64_t{i} * kPathMtu;
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPathMtu, wqe.length - offset));
    const Opcode opcode = SegmentOpcode(wqe.op, i, entry.segments);
    const bool last = i == entry.segments - 1;
    Reth reth{wqe.raddr, wqe.rkey, wqe.length};
    qp_->EmitFromMemory(opcode, PsnAdd(entry.first_psn, i),
                        /*ack_request=*/last,
                        HasReth(opcode) ? &reth : nullptr, nullptr,
                        wqe.laddr + offset, len);
  }
}

void ReliabilityManager::HandleReadResponse(const RdmaMessageView& view) {
  // Responses arrive in PSN order for the oldest incomplete read.
  InflightWqe* target = nullptr;
  for (auto& entry : inflight_) {
    if (entry.wqe.op == WqeOp::kRead && !entry.done) {
      target = &entry;
      break;
    }
  }
  if (target == nullptr) return;  // stale duplicate after recovery
  const std::uint32_t expected =
      PsnAdd(target->first_psn, target->bytes_done / kPathMtu);
  if (view.bth.psn != expected) return;  // gap or stale; timer recovers
  if (view.payload.size() > target->wqe.length - target->bytes_done) {
    qp_->device_->CountMalformed();  // would land past the WQE's buffer
    return;
  }

  qp_->device_->memory().Write(target->wqe.laddr + target->bytes_done,
                               view.payload);
  target->bytes_done += static_cast<std::uint32_t>(view.payload.size());
  if (target->bytes_done == target->wqe.length) target->done = true;
  OnProgress();
  CompleteInOrder();
}

void ReliabilityManager::HandleAck(const RdmaMessageView& view) {
  COWBIRD_CHECK(view.aeth.has_value());
  const std::uint8_t syndrome = view.aeth->syndrome;
  if (syndrome == kSyndromeAck) {
    const std::uint32_t acked = view.bth.psn;
    for (auto& entry : inflight_) {
      if (entry.wqe.op == WqeOp::kRead || entry.done) continue;
      if (PsnDistance(acked, entry.last_psn) >= 0) {
        entry.acked = true;
        entry.done = true;
      }
    }
    OnProgress();
    CompleteInOrder();
    return;
  }
  if (syndrome == kSyndromeNakSequenceError) {
    GoBackN();
    return;
  }
  if (syndrome == kSyndromeRnrNak) {
    // Receiver-not-ready: back off briefly before rewinding so we do not
    // hammer a responder that has no RECV posted yet.
    Device* device = qp_->device_;
    retransmit_timer_.ArmAfter(device->simulation(),
                               device->config().retransmit_timeout / 8,
                               [this] { GoBackN(); });
    return;
  }
  if (syndrome == kSyndromeNakRemoteAccess) {
    // Fatal for the offending WQE: complete it with an error status.
    for (auto& entry : inflight_) {
      if (!entry.done) {
        entry.done = true;
        entry.status = CqeStatus::kRemoteAccessError;
        break;
      }
    }
    OnProgress();
    CompleteInOrder();
  }
}

void ReliabilityManager::CompleteInOrder() {
  bool freed = false;
  while (!inflight_.empty() && inflight_.front().done) {
    const InflightWqe& entry = inflight_.front();
    if (entry.wqe.signaled) {
      qp_->send_cq_->Push(Cqe{entry.wqe.wr_id, ToCqeOpcode(entry.wqe.op),
                              entry.status, entry.wqe.length});
    }
    inflight_.pop_front();
    freed = true;
  }
  if (freed) TryTransmit();
  if (inflight_.empty()) retransmit_timer_.Cancel();
}

void ReliabilityManager::GoBackN() {
  retransmit_timer_.Cancel();
  if (qp_->Halted() || inflight_.empty()) return;
  ++retransmissions_;
  for (auto& entry : inflight_) {
    if (entry.done) continue;
    entry.bytes_done = 0;
    EmitMessage(entry);
  }
  ArmTimer();
}

void ReliabilityManager::ArmTimer() {
  if (retransmit_timer_.Pending()) return;
  Device* device = qp_->device_;
  retransmit_timer_.ArmAfter(device->simulation(),
                             device->config().retransmit_timeout,
                             [this] { GoBackN(); });
}

void ReliabilityManager::OnProgress() {
  retransmit_timer_.Cancel();
  if (!inflight_.empty()) ArmTimer();
}

}  // namespace cowbird::rdma
