// Reliable-Connection queue pair.
//
// Implements the RC requester and responder state machines over the
// simulated fabric: MTU segmentation into First/Middle/Last/Only packets,
// 24-bit PSN sequencing, one ACK per message (ack-request on the last
// segment), NAK on sequence gaps, and Go-Back-N recovery on NAK or
// retransmission timeout. Read requests consume as many PSNs as their
// response will span, exactly as in InfiniBand — this is what lets the
// Cowbird-P4 switch predict and rewrite response PSNs.
//
// The requester half (window, PSNs, GBN timer) lives in the QP's
// ReliabilityManager; congestion control lives in the device's
// CongestionManager. The QP itself keeps packet construction and the
// responder state machine, and routes its data packets through the
// device's paced emit path so both managers compose per flow.
#pragma once

#include <cstdint>

#include "common/pool.h"
#include "common/units.h"
#include "rdma/device.h"
#include "rdma/reliability.h"
#include "rdma/wire.h"

namespace cowbird::rdma {

struct RecvWqe {
  std::uint64_t wr_id = 0;
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
};

class QueuePair {
 public:
  QueuePair(Device& device, std::uint32_t qpn, CompletionQueue* send_cq,
            CompletionQueue* recv_cq);

  // Connects this QP to its peer. Both sides must agree on the starting
  // PSNs (this one's send PSN is the peer's expected PSN).
  void Connect(net::NodeId remote_node, std::uint32_t remote_qpn,
               std::uint32_t my_start_psn, std::uint32_t peer_start_psn);

  // Raw posting interfaces. These model the NIC-visible effect only; the
  // CPU cost of invoking the verb is charged by the wrappers in verbs.h.
  void PostSend(SendWqe wqe);
  void PostRecv(RecvWqe wqe);

  std::uint32_t qpn() const { return qpn_; }
  net::NodeId remote_node() const { return remote_node_; }
  std::uint32_t remote_qpn() const { return remote_qpn_; }
  bool Connected() const { return connected_; }

  std::uint32_t next_psn() const { return reliability_.next_psn(); }
  std::uint64_t retransmissions() const {
    return reliability_.retransmissions();
  }

  // Models the NIC-level teardown of an engine crash: cancels the
  // retransmission timer, discards pending and in-flight WQEs without
  // completing them, and ignores every subsequent packet. Crucially this
  // kills queued retransmissions — a crashed engine must not emit "zombie"
  // writes after its state was exported to a survivor. Packets already on
  // the wire still land at the peer (a crash cannot recall them).
  void Halt();
  bool Halted() const { return halted_; }

  // Packet entry point (called by Device demux).
  void HandlePacket(const net::Packet& packet, const RdmaMessageView& view);

 private:
  friend class ReliabilityManager;

  // ---- responder side ----
  void HandleRequest(const RdmaMessageView& view);
  void ExecuteReadRequest(const RdmaMessageView& view, bool duplicate);
  // Refuses a request at the expected PSN that names an unknown opcode or
  // carries a payload past the span validated for it: counted as malformed
  // and NAKed as an MR miss is, without advancing the expected PSN.
  void RejectRequest();
  void SendAck(std::uint8_t syndrome, std::uint32_t psn);

  void Emit(Opcode opcode, std::uint32_t psn, bool ack_request,
            const Reth* reth, const Aeth* aeth,
            std::span<const std::uint8_t> payload);
  // Segmenting emit path: builds the frame first and DMAs `len` bytes from
  // local memory straight into its payload (no staging buffer).
  void EmitFromMemory(Opcode opcode, std::uint32_t psn, bool ack_request,
                      const Reth* reth, const Aeth* aeth, std::uint64_t addr,
                      std::size_t len);

  Device* device_;
  std::uint32_t qpn_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  net::NodeId remote_node_ = 0;
  std::uint32_t remote_qpn_ = 0;
  bool connected_ = false;
  bool halted_ = false;

  // Requester state machine (window, PSNs, Go-Back-N).
  ReliabilityManager reliability_{*this};

  // Responder state.
  std::uint32_t epsn_ = 0;
  std::uint32_t msn_ = 0;
  bool nak_outstanding_ = false;
  // The WRITE in progress: its cursor and the bytes its WRITE_FIRST
  // validated past it.
  bool write_active_ = false;
  std::uint64_t write_target_ = 0;
  std::uint32_t write_remaining_ = 0;
  std::uint32_t send_received_ = 0;  // bytes landed in the active RECV
  bool recv_active_ = false;
  FixedDeque<RecvWqe> recv_queue_;
  RecvWqe active_recv_{};
};

// Convenience for tests and engines: a connected QP pair with fresh CQs.
struct QpPair {
  QueuePair* a = nullptr;
  QueuePair* b = nullptr;
  CompletionQueue* a_send_cq = nullptr;
  CompletionQueue* a_recv_cq = nullptr;
  CompletionQueue* b_send_cq = nullptr;
  CompletionQueue* b_recv_cq = nullptr;
};
QpPair ConnectQueuePairs(Device& a, Device& b, std::uint32_t start_psn_a = 100,
                         std::uint32_t start_psn_b = 200);

}  // namespace cowbird::rdma
