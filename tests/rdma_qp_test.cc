#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/rpc_wire.h"
#include "baselines/twosided.h"
#include "common/rng.h"
#include "fabric_fixture.h"
#include "rdma/congestion.h"
#include "rdma/verbs.h"

namespace cowbird::rdma {
namespace {

using testing::Pattern;

class QpTest : public ::testing::Test {
 protected:
  QpTest() : QpTest(workload::ClusterSpec{}) {}
  explicit QpTest(const workload::ClusterSpec& spec)
      : f_(spec),
        pair_(ConnectQueuePairs(*f_.client(0).dev, *f_.memory(0).dev)) {
    remote_mr_ = f_.memory(0).dev->RegisterMemory(0x100000, MiB(16));
  }

  // QP b's expected PSN until a request lands there.
  static constexpr std::uint32_t kFirstPsn = 100;

  // Sends one hand-built request straight from the compute NIC to QP b at
  // `psn` and runs the fabric dry: anything can arrive at a QP.
  void InjectRequest(Opcode op, std::uint32_t psn,
                     std::span<const std::uint8_t> payload,
                     const Reth* reth = nullptr) {
    Bth bth;
    bth.opcode = op;
    bth.dest_qp = pair_.b->qpn();
    bth.psn = psn;
    bth.ack_request = true;
    f_.client(0).nic.Send(BuildRdmaPacket(testing::kComputeId,
                                          testing::kMemoryId,
                                          net::Priority::kRdma, bth, reth,
                                          nullptr, payload));
    f_.sim.Run();
  }

  std::vector<std::uint8_t> RemoteBytes(std::uint64_t addr, std::size_t n) {
    std::vector<std::uint8_t> out(n, 0xFF);
    f_.memory(0).mem.Read(addr, out);
    return out;
  }

  // QP a's next WRITE still lands and completes.
  void ExpectWriteStillLands() {
    const auto data = Pattern(64, 30);
    f_.client(0).mem.Write(0x5000, data);
    pair_.a->PostSend(SendWqe{WqeOp::kWrite, 31, 0x5000, remote_mr_->base,
                              remote_mr_->rkey, 64, true});
    f_.sim.Run();
    EXPECT_EQ(RemoteBytes(remote_mr_->base, 64), data);
    const auto cqe = pair_.a_send_cq->Pop();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->wr_id, 31u);
    EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  }

  workload::Cluster f_;
  QpPair pair_;
  const MemoryRegion* remote_mr_;
};

std::vector<std::uint8_t> Zeros(std::size_t n) {
  return std::vector<std::uint8_t>(n, 0);
}

TEST_F(QpTest, SmallWriteLandsInRemoteMemory) {
  const auto data = Pattern(64, 1);
  f_.client(0).mem.Write(0x5000, data);
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, /*wr_id=*/7, /*laddr=*/0x5000,
                            remote_mr_->base + 128, remote_mr_->rkey, 64,
                            true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(64);
  f_.memory(0).mem.Read(remote_mr_->base + 128, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 7u);
  EXPECT_EQ(cqe->opcode, CqeOpcode::kWrite);
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
}

// An inline WRITE of `data` (at most kMaxInlineBytes) to `raddr`.
SendWqe InlineWrite(std::uint64_t wr_id, std::uint64_t raddr,
                    std::uint32_t rkey, const std::vector<std::uint8_t>& data) {
  return SendWqe{WqeOp::kWrite, wr_id, /*laddr=*/0, raddr, rkey,
                 static_cast<std::uint32_t>(data.size()), /*signaled=*/true,
                 data.data()};
}

TEST_F(QpTest, InlineWriteLandsItsPostedBytes) {
  const auto data = Pattern(kMaxInlineBytes, 40);
  // Local address 0 holds other bytes: an inline WRITE never reads memory.
  f_.client(0).mem.Write(0, Pattern(kMaxInlineBytes, 41));
  pair_.a->PostSend(
      InlineWrite(5, remote_mr_->base + 64, remote_mr_->rkey, data));
  f_.sim.Run();
  EXPECT_EQ(RemoteBytes(remote_mr_->base + 64, kMaxInlineBytes), data);
  const auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 5u);
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  EXPECT_EQ(cqe->byte_len, kMaxInlineBytes);
}

TEST_F(QpTest, WriteWatchesFireTogetherAndRemoveIndependently) {
  Device& dev = *f_.memory(0).dev;
  using Landed = std::vector<std::pair<std::uint64_t, std::uint32_t>>;
  Landed wide, narrow;
  const std::uint64_t base = remote_mr_->base;
  const std::uint64_t wide_id = dev.AddWriteWatch(
      base, 4096, [&](std::uint64_t addr, std::uint32_t len) {
        wide.emplace_back(addr, len);
      });
  const std::uint64_t narrow_id = dev.AddWriteWatch(
      base + 64, 64, [&](std::uint64_t addr, std::uint32_t len) {
        narrow.emplace_back(addr, len);
      });
  f_.client(0).mem.Write(0x5000, Pattern(128, 5));
  auto write = [&](std::uint64_t raddr, std::uint32_t len) {
    pair_.a->PostSend(
        SendWqe{WqeOp::kWrite, 0, 0x5000, raddr, remote_mr_->rkey, len, true});
    f_.sim.Run();
  };
  write(base, 128);  // overlaps both
  EXPECT_EQ(wide, (Landed{{base, 128}}));
  EXPECT_EQ(narrow, (Landed{{base, 128}}));
  write(base + 2048, 8);  // inside the wide watch only
  EXPECT_EQ(wide.size(), 2u);
  EXPECT_EQ(narrow.size(), 1u);

  dev.RemoveWriteWatch(wide_id);
  write(base + 96, 8);
  EXPECT_EQ(wide.size(), 2u);
  EXPECT_EQ(narrow, (Landed{{base, 128}, {base + 96, 8}}));
  dev.RemoveWriteWatch(narrow_id);
  write(base + 96, 8);
  EXPECT_EQ(narrow.size(), 2u);
}

TEST_F(QpTest, SmallReadFetchesRemoteData) {
  const auto data = Pattern(256, 2);
  f_.memory(0).mem.Write(remote_mr_->base + 4096, data);
  pair_.a->PostSend(SendWqe{WqeOp::kRead, 9, /*laddr=*/0x9000,
                            remote_mr_->base + 4096, remote_mr_->rkey, 256,
                            true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(256);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->opcode, CqeOpcode::kRead);
}

TEST_F(QpTest, LargeTransfersSegmentAtMtu) {
  // 5000 bytes → 5 segments each way.
  const auto data = Pattern(5000, 3);
  f_.client(0).mem.Write(0x5000, data);
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 5000, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(5000);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
  // Write consumed ceil(5000/1024)=5 PSNs.
  EXPECT_EQ(pair_.a->next_psn(), 105u);  // started at 100

  pair_.a->PostSend(SendWqe{WqeOp::kRead, 2, 0x20000, remote_mr_->base,
                            remote_mr_->rkey, 5000, true});
  f_.sim.Run();
  std::vector<std::uint8_t> back(5000);
  f_.client(0).mem.Read(0x20000, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(pair_.a->next_psn(), 110u);  // read consumed 5 response PSNs
}

TEST_F(QpTest, ManyOutstandingOpsCompleteInOrder) {
  // Mix reads and writes; CQEs must pop in post order (RC guarantee).
  for (std::uint64_t i = 0; i < 32; ++i) {
    const auto data = Pattern(128, 100 + i);
    if (i % 2 == 0) {
      f_.client(0).mem.Write(0x5000 + i * 128, data);
      pair_.a->PostSend(SendWqe{WqeOp::kWrite, i, 0x5000 + i * 128,
                                remote_mr_->base + i * 128, remote_mr_->rkey,
                                128, true});
    } else {
      f_.memory(0).mem.Write(remote_mr_->base + MiB(1) + i * 128, data);
      pair_.a->PostSend(SendWqe{WqeOp::kRead, i, 0x8000 + i * 128,
                                remote_mr_->base + MiB(1) + i * 128,
                                remote_mr_->rkey, 128, true});
    }
  }
  f_.sim.Run();
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto cqe = pair_.a_send_cq->Pop();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->wr_id, i);
  }
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
}

TEST_F(QpTest, UnsignaledWqesProduceNoCqe) {
  const auto data = Pattern(64, 5);
  f_.client(0).mem.Write(0x5000, data);
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 64, /*signaled=*/false});
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 2, 0x5000, remote_mr_->base + 64,
                            remote_mr_->rkey, 64, /*signaled=*/true});
  f_.sim.Run();
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 2u);
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
}

TEST_F(QpTest, InvalidRkeyCompletesWithError) {
  pair_.a->PostSend(SendWqe{WqeOp::kRead, 11, 0x9000, remote_mr_->base,
                            /*rkey=*/0xBADBAD, 64, true});
  f_.sim.Run();
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kRemoteAccessError);
}

TEST_F(QpTest, OutOfRangeAccessCompletesWithError) {
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 12, 0x5000,
                            remote_mr_->base + remote_mr_->length - 8,
                            remote_mr_->rkey, 64, true});
  f_.sim.Run();
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kRemoteAccessError);
}

TEST_F(QpTest, TwoSidedSendRecv) {
  const auto request = Pattern(2000, 6);  // 2 segments
  f_.client(0).mem.Write(0x5000, request);
  pair_.b->PostRecv(RecvWqe{77, 0x300000, 4096});
  pair_.a->PostSend(
      SendWqe{WqeOp::kSend, 13, 0x5000, 0, 0, 2000, true});
  f_.sim.Run();
  auto recv_cqe = pair_.b_recv_cq->Pop();
  ASSERT_TRUE(recv_cqe.has_value());
  EXPECT_EQ(recv_cqe->wr_id, 77u);
  EXPECT_EQ(recv_cqe->opcode, CqeOpcode::kRecv);
  EXPECT_EQ(recv_cqe->byte_len, 2000u);
  std::vector<std::uint8_t> out(2000);
  f_.memory(0).mem.Read(0x300000, out);
  EXPECT_EQ(out, request);
  auto send_cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(send_cqe.has_value());
  EXPECT_EQ(send_cqe->wr_id, 13u);
}

TEST_F(QpTest, SendBeforeRecvPostedRecoversViaRnr) {
  const auto request = Pattern(100, 7);
  f_.client(0).mem.Write(0x5000, request);
  pair_.a->PostSend(SendWqe{WqeOp::kSend, 14, 0x5000, 0, 0, 100, true});
  // Post the RECV well after the SEND has been NAKed.
  f_.sim.ScheduleAt(Micros(40), [&] {
    pair_.b->PostRecv(RecvWqe{88, 0x300000, 4096});
  });
  f_.sim.Run();
  auto recv_cqe = pair_.b_recv_cq->Pop();
  ASSERT_TRUE(recv_cqe.has_value());
  EXPECT_EQ(recv_cqe->wr_id, 88u);
  std::vector<std::uint8_t> out(100);
  f_.memory(0).mem.Read(0x300000, out);
  EXPECT_EQ(out, request);
  EXPECT_GT(pair_.a->retransmissions(), 0u);
}

// Anything can arrive on the RoCE port: a body too short for even a BTH is
// dropped and counted, and the device goes on serving its QPs.
TEST_F(QpTest, ShortRocePacketIsDroppedAndCounted) {
  f_.client(0).nic.Send(net::MakeUdpPacket(
      testing::kComputeId, testing::kMemoryId, 4, net::Priority::kRdma));
  const auto data = Pattern(64, 8);
  f_.client(0).mem.Write(0x5000, data);
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 15, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 64, true});
  f_.sim.Run();
  EXPECT_EQ(f_.memory(0).dev->malformed_dropped(), 1u);
  std::vector<std::uint8_t> out(64);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
}

// The same two QPs on a fabric that runs DCQCN.
class DcqcnQpTest : public QpTest {
 protected:
  DcqcnQpTest() : QpTest(DcqcnSpec()) {}
  static workload::ClusterSpec DcqcnSpec() {
    workload::ClusterSpec spec;
    spec.nic.dcqcn.enabled = true;
    return spec;
  }
};

// A CNP names the local QP whose flow must slow down. One naming no QP of
// the device (QPN 0, or one far past its QPs) is dropped and counted: it
// neither aborts, nor grows the flow table, nor cuts any rate.
TEST_F(DcqcnQpTest, CnpNamingNoLocalQpIsDroppedAndCounted) {
  for (const std::uint32_t qpn : {0u, 0xFFFFFFu}) {
    Bth bth;
    bth.opcode = Opcode::kCnp;
    bth.dest_qp = qpn;
    f_.memory(0).nic.Send(BuildRdmaPacket(testing::kMemoryId,
                                          testing::kComputeId,
                                          net::Priority::kControl, bth,
                                          nullptr, nullptr, {}));
  }
  f_.sim.Run();
  EXPECT_EQ(f_.client(0).dev->malformed_dropped(), 2u);
  EXPECT_EQ(f_.client(0).dev->congestion()->cnps_received(), 0u);
  ExpectWriteStillLands();
}

// A request the responder cannot serve inside the span validated for it is
// NAKed as an MR miss is and counted, and touches no memory.
TEST_F(QpTest, UnknownOpcodeIsNakedAndCounted) {
  InjectRequest(static_cast<Opcode>(0x05), kFirstPsn, Pattern(64, 20));
  EXPECT_EQ(f_.memory(0).dev->malformed_dropped(), 1u);
  ExpectWriteStillLands();
}

TEST_F(QpTest, SendOverrunningItsReceiveIsNakedAndCounted) {
  pair_.b->PostRecv(RecvWqe{77, 0x300000, 64});
  InjectRequest(Opcode::kSendOnly, kFirstPsn, Pattern(128, 21));
  EXPECT_EQ(f_.memory(0).dev->malformed_dropped(), 1u);
  EXPECT_FALSE(pair_.b_recv_cq->Pop().has_value());
  EXPECT_EQ(RemoteBytes(0x300000, 128), Zeros(128));

  // The receive stays posted: a send that fits lands in it.
  const auto request = Pattern(64, 22);
  f_.client(0).mem.Write(0x5000, request);
  pair_.a->PostSend(SendWqe{WqeOp::kSend, 13, 0x5000, 0, 0, 64, true});
  f_.sim.Run();
  const auto recv = pair_.b_recv_cq->Pop();
  ASSERT_TRUE(recv.has_value());
  EXPECT_EQ(recv->wr_id, 77u);
  EXPECT_EQ(recv->byte_len, 64u);
  EXPECT_EQ(RemoteBytes(0x300000, 64), request);
}

TEST_F(QpTest, WriteMiddleWithoutFirstIsNakedAndCounted) {
  InjectRequest(Opcode::kWriteMiddle, kFirstPsn, Pattern(64, 23));
  InjectRequest(Opcode::kWriteLast, kFirstPsn, Pattern(64, 24));
  EXPECT_EQ(f_.memory(0).dev->malformed_dropped(), 2u);
  EXPECT_EQ(RemoteBytes(0, 128), Zeros(128));  // no cursor to write at
  ExpectWriteStillLands();
}

TEST_F(QpTest, WritePastItsDmaLengthIsNakedAndCounted) {
  // The WRITE_FIRST validates the MR's last KiB; its LAST runs past it.
  const std::uint64_t vaddr = remote_mr_->base + remote_mr_->length - 1024;
  const Reth reth{vaddr, remote_mr_->rkey, 1024};
  const auto first = Pattern(1024, 25);
  InjectRequest(Opcode::kWriteFirst, kFirstPsn, first, &reth);
  InjectRequest(Opcode::kWriteLast, kFirstPsn + 1, Pattern(512, 26));
  EXPECT_EQ(f_.memory(0).dev->malformed_dropped(), 1u);
  EXPECT_EQ(RemoteBytes(vaddr, 1024), first);
  EXPECT_EQ(RemoteBytes(vaddr + 1024, 512), Zeros(512));
}

// A RETH whose span wraps past 2^64 names no byte of the MR.
TEST_F(QpTest, WrappingRethIsAnMrMiss) {
  const Reth reth{~std::uint64_t{0} - 15, remote_mr_->rkey, 64};
  InjectRequest(Opcode::kWriteOnly, kFirstPsn, Pattern(64, 27), &reth);
  EXPECT_EQ(RemoteBytes(0, 64), Zeros(64));
  ExpectWriteStillLands();
}

// The requester keeps a read response inside its WQE's buffer: one that
// would run past it is dropped and counted, and the genuine one completes
// the read.
TEST_F(QpTest, ReadResponsePastItsWqeIsDroppedAndCounted) {
  const auto data = Pattern(64, 28);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  pair_.a->PostSend(SendWqe{WqeOp::kRead, 9, 0x9000, remote_mr_->base,
                            remote_mr_->rkey, 64, true});
  // Ahead of the genuine response: the read's PSN, twice its bytes.
  Bth bth;
  bth.opcode = Opcode::kReadResponseOnly;
  bth.dest_qp = pair_.a->qpn();
  bth.psn = 100;
  const Aeth aeth{kSyndromeAck, 1};
  f_.memory(0).nic.Send(BuildRdmaPacket(testing::kMemoryId,
                                        testing::kComputeId,
                                        net::Priority::kRdma, bth, nullptr,
                                        &aeth, Pattern(128, 29)));
  f_.sim.Run();
  EXPECT_EQ(f_.client(0).dev->malformed_dropped(), 1u);
  std::vector<std::uint8_t> out(128);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), out.begin()));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 64, out.end()),
            Zeros(64));
  const auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 9u);
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
}

// ---------------------------------------------------------------------------
// Two-sided RPC baseline: every wire-supplied length and address is checked
// ---------------------------------------------------------------------------

// Memory server 0 serves the pool MR over QP b; the client calls over QP a.
class TwoSidedRpcTest : public QpTest {
 protected:
  TwoSidedRpcTest()
      : server_(*f_.memory(0).dev, *f_.memory(0).machine, *remote_mr_),
        client_(*f_.client(0).dev, pair_.a, pair_.a_recv_cq, 0) {
    server_.Serve(pair_.b, pair_.b_recv_cq, 0);
  }

  // Runs one client read of `len` bytes at pool offset `offset` into
  // 0x9000 and returns what landed there.
  std::vector<std::uint8_t> Read(std::uint64_t offset, std::uint32_t len) {
    sim::SimThread thread(*f_.client(0).machine, "app");
    f_.sim.Spawn([](baselines::TwoSidedClient& c, sim::SimThread& thr,
                    std::uint64_t raddr,
                    std::uint32_t n) -> sim::Task<void> {
      co_await c.Read(thr, raddr, 0x9000, n);
    }(client_, thread, remote_mr_->base + offset, len));
    f_.sim.Run();
    std::vector<std::uint8_t> out(len);
    f_.client(0).mem.Read(0x9000, out);
    return out;
  }

  baselines::TwoSidedServer server_;
  baselines::TwoSidedClient client_;
};

TEST_F(TwoSidedRpcTest, OutOfPoolRequestIsCountedAndTheNextServed) {
  // A raw SEND of a write request aimed below the pool MR.
  baselines::RpcRequest request;
  request.op = baselines::RpcOp::kWrite;
  request.remote_addr = 0;
  request.length = 64;
  request.client_cookie = 99;
  std::vector<std::uint8_t> raw(baselines::RpcRequest::kHeaderBytes);
  request.SerializeHeader(raw);
  const auto payload = Pattern(64, 40);
  raw.insert(raw.end(), payload.begin(), payload.end());
  f_.client(0).mem.Write(0x5000, raw);
  pair_.a->PostSend(SendWqe{WqeOp::kSend, 0, 0x5000, 0, 0,
                            static_cast<std::uint32_t>(raw.size()), false});
  f_.sim.Run();
  EXPECT_EQ(server_.rejected_requests(), 1u);
  EXPECT_EQ(RemoteBytes(0, 64), Zeros(64));

  const auto data = Pattern(256, 41);
  f_.memory(0).mem.Write(remote_mr_->base + 512, data);
  EXPECT_EQ(Read(512, 256), data);
  EXPECT_EQ(server_.rejected_requests(), 1u);
  EXPECT_EQ(client_.ignored_responses(), 0u);
}

TEST_F(TwoSidedRpcTest, StrayResponseIsCountedAndIgnored) {
  // A response no call is waiting for reaches the client first.
  baselines::RpcResponse stray;
  stray.client_cookie = 12345;
  stray.payload_length = 256;
  std::vector<std::uint8_t> raw(baselines::RpcResponse::kHeaderBytes + 256);
  stray.SerializeHeader(raw);
  f_.memory(0).mem.Write(0x5000, raw);
  pair_.b->PostSend(SendWqe{WqeOp::kSend, 0, 0x5000, 0, 0,
                            static_cast<std::uint32_t>(raw.size()), false});
  f_.sim.Run();

  const auto data = Pattern(256, 42);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  EXPECT_EQ(Read(0, 256), data);
  EXPECT_EQ(client_.ignored_responses(), 1u);
}

// ---------------------------------------------------------------------------
// Loss recovery (Go-Back-N)
// ---------------------------------------------------------------------------

class QpLossTest : public QpTest {
 protected:
  // Installs a drop filter on the switch→memory egress link that drops the
  // nth RDMA data packet it sees.
  void DropNthTowardMemory(int n) {
    auto counter = std::make_shared<int>(0);
    f_.sw().EgressLink(f_.memory(0).nic.switch_port())
        .set_drop_filter([counter, n](const net::Packet& p) {
          if (!LooksLikeRdma(p)) return false;
          return ++*counter == n;
        });
  }
  void DropNthTowardCompute(int n) {
    auto counter = std::make_shared<int>(0);
    f_.sw().EgressLink(f_.client(0).nic.switch_port())
        .set_drop_filter([counter, n](const net::Packet& p) {
          if (!LooksLikeRdma(p)) return false;
          return ++*counter == n;
        });
  }
};

TEST_F(QpLossTest, WriteRecoversFromLostDataPacket) {
  const auto data = Pattern(4000, 8);
  f_.client(0).mem.Write(0x5000, data);
  DropNthTowardMemory(2);  // lose WRITE_MIDDLE
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 4000, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(4000);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
  EXPECT_TRUE(pair_.a_send_cq->Pop().has_value());
  EXPECT_GT(pair_.a->retransmissions(), 0u);
}

TEST_F(QpLossTest, InlineWriteResendCarriesItsPostedBytes) {
  // Two inline WRITEs posted from one buffer, rewritten between the posts.
  // The first one's packet is lost, so Go-Back-N sends both again: each
  // resend must carry the bytes of its own post.
  const auto first = Pattern(kMaxInlineBytes, 42);
  const auto second = Pattern(24, 43);
  DropNthTowardMemory(1);
  std::vector<std::uint8_t> buffer = first;
  pair_.a->PostSend(
      InlineWrite(1, remote_mr_->base, remote_mr_->rkey, buffer));
  buffer = second;
  pair_.a->PostSend(
      InlineWrite(2, remote_mr_->base + 256, remote_mr_->rkey, buffer));
  buffer.assign(buffer.size(), 0);
  f_.sim.Run();
  EXPECT_EQ(RemoteBytes(remote_mr_->base, kMaxInlineBytes), first);
  EXPECT_EQ(RemoteBytes(remote_mr_->base + 256, 24), second);
  EXPECT_GT(pair_.a->retransmissions(), 0u);
  for (const std::uint64_t wr_id : {1u, 2u}) {
    const auto cqe = pair_.a_send_cq->Pop();
    ASSERT_TRUE(cqe.has_value());
    EXPECT_EQ(cqe->wr_id, wr_id);
    EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  }
}

TEST_F(QpLossTest, WriteRecoversFromLostAck) {
  const auto data = Pattern(512, 9);
  f_.client(0).mem.Write(0x5000, data);
  DropNthTowardCompute(1);  // the ACK
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 512, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(512);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
  EXPECT_TRUE(pair_.a_send_cq->Pop().has_value());
}

TEST_F(QpLossTest, ReadRecoversFromLostRequest) {
  const auto data = Pattern(256, 10);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  DropNthTowardMemory(1);  // the READ_REQUEST itself
  pair_.a->PostSend(SendWqe{WqeOp::kRead, 1, 0x9000, remote_mr_->base,
                            remote_mr_->rkey, 256, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(256);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_EQ(out, data);
}

TEST_F(QpLossTest, ReadRecoversFromLostMiddleResponse) {
  const auto data = Pattern(3 * kPathMtu, 11);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  DropNthTowardCompute(2);  // READ_RESP_MIDDLE
  pair_.a->PostSend(
      SendWqe{WqeOp::kRead, 1, 0x9000, remote_mr_->base, remote_mr_->rkey,
              static_cast<std::uint32_t>(3 * kPathMtu), true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(3 * kPathMtu);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(pair_.a->retransmissions(), 0u);
}

TEST_F(QpLossTest, RandomLossManyOpsAllComplete) {
  // 5% random loss in both directions; 100 mixed operations must all
  // complete with intact data.
  auto rng = std::make_shared<Rng>(42);
  auto loss = [rng](const net::Packet& p) {
    return LooksLikeRdma(p) && rng->Bernoulli(0.05);
  };
  f_.sw().EgressLink(f_.memory(0).nic.switch_port()).set_drop_filter(loss);
  f_.sw().EgressLink(f_.client(0).nic.switch_port()).set_drop_filter(loss);

  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    blobs.push_back(Pattern(777, 1000 + i));
    if (i % 2 == 0) {
      f_.client(0).mem.Write(0x40000 + i * 1024, blobs.back());
      pair_.a->PostSend(SendWqe{WqeOp::kWrite, i, 0x40000 + i * 1024,
                                remote_mr_->base + i * 1024,
                                remote_mr_->rkey, 777, true});
    } else {
      f_.memory(0).mem.Write(remote_mr_->base + MiB(4) + i * 1024,
                          blobs.back());
      pair_.a->PostSend(SendWqe{WqeOp::kRead, i, 0x80000 + i * 1024,
                                remote_mr_->base + MiB(4) + i * 1024,
                                remote_mr_->rkey, 777, true});
    }
  }
  f_.sim.Run();
  std::size_t completions = 0;
  while (auto cqe = pair_.a_send_cq->Pop()) {
    EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
    ++completions;
  }
  EXPECT_EQ(completions, 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> out(777);
    if (i % 2 == 0) {
      f_.memory(0).mem.Read(remote_mr_->base + i * 1024, out);
    } else {
      f_.client(0).mem.Read(0x80000 + i * 1024, out);
    }
    EXPECT_EQ(out, blobs[i]) << "op " << i;
  }
}

// ---------------------------------------------------------------------------
// Duplication and reordering (Go-Back-N under faulty delivery)
// ---------------------------------------------------------------------------

class QpFaultTest : public QpTest {
 protected:
  // Applies `action` to the nth RDMA packet crossing the given egress link.
  static void FaultNth(net::Link& link, int n, net::FaultAction action) {
    auto counter = std::make_shared<int>(0);
    link.set_fault_filter([counter, n, action](const net::Packet& p) {
      if (LooksLikeRdma(p) && ++*counter == n) return action;
      return net::FaultAction{};
    });
  }
  net::Link& TowardMemory() {
    return f_.sw().EgressLink(f_.memory(0).nic.switch_port());
  }
  net::Link& TowardCompute() {
    return f_.sw().EgressLink(f_.client(0).nic.switch_port());
  }
  // Long enough for later arrivals to overtake the held packet (several
  // serialization times plus propagation), matching the chaos plan default.
  static constexpr Nanos kReorderHold = Micros(5);
};

TEST_F(QpFaultTest, WriteSurvivesDuplicatedAck) {
  const auto data = Pattern(512, 20);
  f_.client(0).mem.Write(0x5000, data);
  // Packet 1 toward compute is the ACK; deliver it three times. The extra
  // copies no longer cover any inflight entry and must be ignored.
  FaultNth(TowardCompute(), 1, net::FaultAction{.duplicate = 2});
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 512, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(512);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  // Exactly one completion despite three ACK deliveries. The counter tracks
  // extra copies, not faulted packets.
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
  EXPECT_EQ(TowardCompute().faults_duplicated(), 2u);
}

TEST_F(QpFaultTest, DuplicatedWriteDataIsNotReapplied) {
  const auto data = Pattern(3 * kPathMtu, 21);
  f_.client(0).mem.Write(0x5000, data);
  // Duplicate WRITE_FIRST toward memory: the copy arrives with psn < epsn,
  // so the responder re-ACKs it without touching memory. The stale ACK the
  // duplicate provokes must in turn be ignored by the requester.
  FaultNth(TowardMemory(), 1, net::FaultAction{.duplicate = 1});
  pair_.a->PostSend(
      SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base, remote_mr_->rkey,
              static_cast<std::uint32_t>(3 * kPathMtu), true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(3 * kPathMtu);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
  EXPECT_EQ(TowardMemory().faults_duplicated(), 1u);
}

TEST_F(QpFaultTest, ReadSurvivesDuplicatedResponse) {
  const auto data = Pattern(3 * kPathMtu, 22);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  // Duplicate READ_RESP_MIDDLE toward compute: the copy's PSN is behind the
  // requester's expected response PSN and is discarded.
  FaultNth(TowardCompute(), 2, net::FaultAction{.duplicate = 1});
  pair_.a->PostSend(
      SendWqe{WqeOp::kRead, 1, 0x9000, remote_mr_->base, remote_mr_->rkey,
              static_cast<std::uint32_t>(3 * kPathMtu), true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(3 * kPathMtu);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
  EXPECT_EQ(TowardCompute().faults_duplicated(), 1u);
}

TEST_F(QpFaultTest, WriteSurvivesReorderedAcks) {
  // Two single-segment writes produce two ACKs. Hold the first ACK back so
  // the second (cumulative, higher PSN) overtakes it and completes both
  // writes; the late stale ACK must then be ignored.
  const auto a = Pattern(256, 23);
  const auto b = Pattern(256, 24);
  f_.client(0).mem.Write(0x5000, a);
  f_.client(0).mem.Write(0x5100, b);
  FaultNth(TowardCompute(), 1,
           net::FaultAction{.delay = kReorderHold, .reorder = true});
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 1, 0x5000, remote_mr_->base,
                            remote_mr_->rkey, 256, true});
  pair_.a->PostSend(SendWqe{WqeOp::kWrite, 2, 0x5100, remote_mr_->base + 256,
                            remote_mr_->rkey, 256, true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(256);
  f_.memory(0).mem.Read(remote_mr_->base, out);
  EXPECT_EQ(out, a);
  f_.memory(0).mem.Read(remote_mr_->base + 256, out);
  EXPECT_EQ(out, b);
  // Both CQEs, in post order, exactly once.
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 1u);
  cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->wr_id, 2u);
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
  EXPECT_EQ(TowardCompute().faults_reordered(), 1u);
}

TEST_F(QpFaultTest, ReadSurvivesReorderedResponses) {
  const auto data = Pattern(3 * kPathMtu, 25);
  f_.memory(0).mem.Write(remote_mr_->base, data);
  // Hold READ_RESP_FIRST so later response segments arrive ahead of it. The
  // requester sees a PSN gap, discards the out-of-order segments, and the
  // retransmit timer re-issues the read — Go-Back-N, not reassembly.
  FaultNth(TowardCompute(), 1,
           net::FaultAction{.delay = kReorderHold, .reorder = true});
  pair_.a->PostSend(
      SendWqe{WqeOp::kRead, 1, 0x9000, remote_mr_->base, remote_mr_->rkey,
              static_cast<std::uint32_t>(3 * kPathMtu), true});
  f_.sim.Run();
  std::vector<std::uint8_t> out(3 * kPathMtu);
  f_.client(0).mem.Read(0x9000, out);
  EXPECT_EQ(out, data);
  auto cqe = pair_.a_send_cq->Pop();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
  EXPECT_FALSE(pair_.a_send_cq->Pop().has_value());
  EXPECT_EQ(TowardCompute().faults_reordered(), 1u);
}

TEST_F(QpFaultTest, RandomDupReorderLossManyOpsAllComplete) {
  // Mixed duplication, reordering, and loss in both directions; 100 mixed
  // operations must all complete exactly once with intact data.
  auto rng = std::make_shared<Rng>(77);
  auto fault = [rng](const net::Packet& p) {
    net::FaultAction action;
    if (!LooksLikeRdma(p)) return action;
    const double u = rng->NextDouble();
    if (u < 0.02) {
      action.drop = true;
    } else if (u < 0.05) {
      action.duplicate = 1 + static_cast<int>(rng->Next() % 2);
    } else if (u < 0.08) {
      action.delay = kReorderHold;
      action.reorder = true;
    }
    return action;
  };
  TowardMemory().set_fault_filter(fault);
  TowardCompute().set_fault_filter(fault);

  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    blobs.push_back(Pattern(777, 2000 + i));
    if (i % 2 == 0) {
      f_.client(0).mem.Write(0x40000 + i * 1024, blobs.back());
      pair_.a->PostSend(SendWqe{WqeOp::kWrite, i, 0x40000 + i * 1024,
                                remote_mr_->base + i * 1024,
                                remote_mr_->rkey, 777, true});
    } else {
      f_.memory(0).mem.Write(remote_mr_->base + MiB(4) + i * 1024,
                          blobs.back());
      pair_.a->PostSend(SendWqe{WqeOp::kRead, i, 0x80000 + i * 1024,
                                remote_mr_->base + MiB(4) + i * 1024,
                                remote_mr_->rkey, 777, true});
    }
  }
  f_.sim.Run();
  std::size_t completions = 0;
  while (auto cqe = pair_.a_send_cq->Pop()) {
    EXPECT_EQ(cqe->status, CqeStatus::kSuccess);
    EXPECT_EQ(cqe->wr_id, completions);  // RC: in post order, exactly once
    ++completions;
  }
  EXPECT_EQ(completions, 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> out(777);
    if (i % 2 == 0) {
      f_.memory(0).mem.Read(remote_mr_->base + i * 1024, out);
    } else {
      f_.client(0).mem.Read(0x80000 + i * 1024, out);
    }
    EXPECT_EQ(out, blobs[i]) << "op " << i;
  }
  // The run actually exercised every fault kind.
  EXPECT_GT(TowardMemory().faults_dropped() + TowardCompute().faults_dropped(),
            0u);
  EXPECT_GT(TowardMemory().faults_duplicated() +
                TowardCompute().faults_duplicated(),
            0u);
  EXPECT_GT(TowardMemory().faults_reordered() +
                TowardCompute().faults_reordered(),
            0u);
}

// ---------------------------------------------------------------------------
// Charged verbs
// ---------------------------------------------------------------------------

TEST_F(QpTest, VerbWrappersChargeCommunicationTime) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  const auto data = Pattern(64, 12);
  f_.memory(0).mem.Write(remote_mr_->base, data);

  bool done = false;
  f_.sim.Spawn([](QueuePair& qp, CompletionQueue& cq, const MemoryRegion* mr,
                  sim::SimThread& thr, bool& flag) -> sim::Task<void> {
    co_await PostSendVerb(
        thr, qp,
        SendWqe{WqeOp::kRead, 1, 0x9000, mr->base, mr->rkey, 64, true});
    const Cqe cqe = co_await BusyPollCqVerb(thr, cq);
    flag = cqe.status == CqeStatus::kSuccess;
  }(*pair_.a, *pair_.a_send_cq, remote_mr_, thread, done));
  f_.sim.Run();

  EXPECT_TRUE(done);
  // Post charged exactly PostTotal; busy poll charged at least one PollTotal.
  EXPECT_GE(thread.TimeIn(sim::CpuCategory::kCommunication),
            cost::PostTotal() + cost::PollTotal());
  EXPECT_EQ(thread.TimeIn(sim::CpuCategory::kCompute), 0);
}

}  // namespace
}  // namespace cowbird::rdma
