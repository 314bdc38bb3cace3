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

#include <array>
#include <cstdint>

#include "common/pool.h"
#include "common/units.h"
#include "rdma/device.h"
#include "rdma/wire.h"

namespace cowbird::rdma {

class QueuePair;

enum class WqeOp : std::uint8_t { kRead, kWrite, kSend };

// Largest payload a WRITE or SEND may carry inline (IBV_SEND_INLINE): the
// bytes are copied at post, so the NIC never reads the source buffer and
// the poster may reuse it at once. Sized to the 40-byte red block, the
// only inline payload posted; one packet carries it.
constexpr std::size_t kMaxInlineBytes = 40;
static_assert(kMaxInlineBytes <= kPathMtu);

struct SendWqe {
  WqeOp op = WqeOp::kRead;
  std::uint64_t wr_id = 0;
  std::uint64_t laddr = 0;   // local buffer (source for write/send,
                             // destination for read)
  std::uint64_t raddr = 0;   // remote address (read/write)
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;
  bool signaled = true;
  // Inline WRITE/SEND: the payload is the `length` bytes at inline_data,
  // which need only stay valid until PostSend returns. The send queue
  // keeps a copy beside the WQE (numbered in laddr, which an inline WQE
  // does not use), and every transmission, Go-Back-N resends included,
  // sends that copy, so what a queued WQE carries cannot change after its
  // post. After the post only the pointer's being non-null is read.
  const std::uint8_t* inline_data = nullptr;
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

  using InlinePayload = std::array<std::uint8_t, kMaxInlineBytes>;

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
  // Payloads of the inline WQEs posted and not yet completed, in post
  // order (WQEs complete in order), kept out of the queued WQEs so those
  // stay small.
  FixedDeque<InlinePayload> inline_;
  std::uint64_t inline_front_ = 0;  // number of inline_.front()
  std::uint32_t next_psn_ = 0;
  sim::TimerHandle retransmit_timer_;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace cowbird::rdma
