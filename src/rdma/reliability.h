// Go-Back-N reliability manager: the requester half of the RC state
// machine, split out of QueuePair so it sits beside (and independent of)
// the CongestionManager — the same decomposition RoCEv2 NIC engines use.
//
// The manager owns the send-side WQE queues, PSN assignment, cumulative
// ACK / NAK handling, the retransmission timer, and Go-Back-N rewinds.
// Packet construction and responder state stay in QueuePair; the manager
// reaches back through its owning QP (it is a friend) for emission and
// device services. Rate limiting never lives here: a Go-Back-N rewind
// re-emits through the QP's paced path, so retransmit storms are subject
// to the same per-flow rate as first transmissions.
#pragma once

#include <cstdint>

#include "common/pool.h"
#include "common/units.h"
#include "rdma/device.h"
#include "rdma/wire.h"

namespace cowbird::rdma {

class QueuePair;

enum class WqeOp : std::uint8_t { kRead, kWrite, kSend };

struct SendWqe {
  WqeOp op = WqeOp::kRead;
  std::uint64_t wr_id = 0;
  std::uint64_t laddr = 0;   // local buffer (source for write/send,
                             // destination for read)
  std::uint64_t raddr = 0;   // remote address (read/write)
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;
  bool signaled = true;
};

class ReliabilityManager {
 public:
  explicit ReliabilityManager(QueuePair& qp) : qp_(&qp) {}
  ReliabilityManager(const ReliabilityManager&) = delete;
  ReliabilityManager& operator=(const ReliabilityManager&) = delete;

  void set_start_psn(std::uint32_t psn) { next_psn_ = psn & kPsnMask; }

  // Queues a posted WQE and transmits as far as the window allows.
  void Enqueue(SendWqe wqe);

  void HandleReadResponse(const RdmaMessageView& view);
  void HandleAck(const RdmaMessageView& view);

  // Engine-crash teardown: cancel the timer, discard all requester state.
  void Halt();

  std::uint32_t next_psn() const { return next_psn_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct InflightWqe {
    SendWqe wqe;
    std::uint32_t first_psn = 0;
    std::uint32_t last_psn = 0;
    std::uint32_t segments = 1;
    std::uint32_t bytes_done = 0;  // read-response progress
    bool acked = false;            // write/send: covered by cumulative ACK
    bool done = false;             // ready to complete in order
    CqeStatus status = CqeStatus::kSuccess;
  };

  void TryTransmit();
  void EmitMessage(const InflightWqe& entry);
  void CompleteInOrder();
  void GoBackN();
  void ArmTimer();
  void OnProgress();

  QueuePair* qp_;
  // FixedDeque: WQE queues cycle at packet rate, and std::deque's block
  // churn would put the allocator on the datapath.
  FixedDeque<SendWqe> pending_;       // posted, not yet transmitted
  FixedDeque<InflightWqe> inflight_;  // transmitted, not completed
  std::uint32_t next_psn_ = 0;
  sim::TimerHandle retransmit_timer_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace cowbird::rdma
