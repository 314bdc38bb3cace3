#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "rdma/wire.h"

namespace cowbird::rdma {
namespace {

TEST(Wire, BthRoundTrip) {
  Bth h;
  h.opcode = Opcode::kReadRequest;
  h.ack_request = true;
  h.solicited = true;
  h.dest_qp = 0x00ABCDEF;
  h.psn = 0x00123456;
  std::vector<std::uint8_t> buf(kBthBytes);
  h.Serialize(buf);
  const Bth parsed = Bth::Parse(buf);
  EXPECT_EQ(parsed.opcode, h.opcode);
  EXPECT_EQ(parsed.ack_request, true);
  EXPECT_EQ(parsed.solicited, true);
  EXPECT_EQ(parsed.dest_qp, h.dest_qp);
  EXPECT_EQ(parsed.psn, h.psn);
}

TEST(Wire, RethRoundTrip) {
  Reth h{0xDEADBEEF12345678ull, 0xCAFEBABE, 0x10000};
  std::vector<std::uint8_t> buf(kRethBytes);
  h.Serialize(buf);
  const Reth parsed = Reth::Parse(buf);
  EXPECT_EQ(parsed.vaddr, h.vaddr);
  EXPECT_EQ(parsed.rkey, h.rkey);
  EXPECT_EQ(parsed.dma_length, h.dma_length);
}

TEST(Wire, AethRoundTrip) {
  Aeth h{kSyndromeNakSequenceError, 0x00FEDCBA};
  std::vector<std::uint8_t> buf(kAethBytes);
  h.Serialize(buf);
  const Aeth parsed = Aeth::Parse(buf);
  EXPECT_EQ(parsed.syndrome, h.syndrome);
  EXPECT_EQ(parsed.msn, h.msn);
}

TEST(Wire, HeaderPresenceMatchesTable4) {
  // Table 4: RETH on read request + write request; AETH on read response +
  // acknowledgment.
  EXPECT_TRUE(HasReth(Opcode::kReadRequest));
  EXPECT_TRUE(HasReth(Opcode::kWriteFirst));
  EXPECT_TRUE(HasReth(Opcode::kWriteOnly));
  EXPECT_FALSE(HasReth(Opcode::kWriteMiddle));
  EXPECT_FALSE(HasReth(Opcode::kWriteLast));
  EXPECT_TRUE(HasAeth(Opcode::kReadResponseFirst));
  EXPECT_TRUE(HasAeth(Opcode::kReadResponseLast));
  EXPECT_TRUE(HasAeth(Opcode::kReadResponseOnly));
  EXPECT_FALSE(HasAeth(Opcode::kReadResponseMiddle));
  EXPECT_TRUE(HasAeth(Opcode::kAcknowledge));
  EXPECT_FALSE(HasAeth(Opcode::kReadRequest));
}

TEST(Wire, SegmentCountAtMtuBoundaries) {
  EXPECT_EQ(SegmentCount(0), 1u);
  EXPECT_EQ(SegmentCount(1), 1u);
  EXPECT_EQ(SegmentCount(kPathMtu), 1u);
  EXPECT_EQ(SegmentCount(kPathMtu + 1), 2u);
  EXPECT_EQ(SegmentCount(3 * kPathMtu), 3u);
  EXPECT_EQ(SegmentCount(3 * kPathMtu + 1), 4u);
}

TEST(Wire, PsnArithmeticWraps) {
  EXPECT_EQ(PsnAdd(0xFFFFFF, 1), 0u);
  EXPECT_EQ(PsnAdd(0xFFFFFE, 3), 1u);
  EXPECT_EQ(PsnDistance(0, 0xFFFFFF), 1);
  EXPECT_EQ(PsnDistance(0xFFFFFF, 0), -1);
  EXPECT_EQ(PsnDistance(5, 5), 0);
  EXPECT_EQ(PsnDistance(100, 50), 50);
  EXPECT_EQ(PsnDistance(50, 100), -50);
}

TEST(Wire, PacketBuildParseReadRequest) {
  Bth bth;
  bth.opcode = Opcode::kReadRequest;
  bth.dest_qp = 7;
  bth.psn = 42;
  Reth reth{0x1000, 0xABCD, 4096};
  net::Packet p = BuildRdmaPacket(1, 2, net::Priority::kRdma, bth, &reth,
                                  nullptr, {});
  EXPECT_TRUE(LooksLikeRdma(p));
  const auto view = ParseRdmaPacket(p);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bth.opcode, Opcode::kReadRequest);
  EXPECT_EQ(view->bth.dest_qp, 7u);
  EXPECT_EQ(view->bth.psn, 42u);
  ASSERT_TRUE(view->reth.has_value());
  EXPECT_EQ(view->reth->vaddr, 0x1000u);
  EXPECT_EQ(view->reth->dma_length, 4096u);
  EXPECT_FALSE(view->aeth.has_value());
  EXPECT_TRUE(view->payload.empty());
}

TEST(Wire, PacketBuildParseWithPayload) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  Bth bth;
  bth.opcode = Opcode::kReadResponseOnly;
  bth.dest_qp = 3;
  bth.psn = 9;
  Aeth aeth{kSyndromeAck, 17};
  net::Packet p =
      BuildRdmaPacket(2, 1, net::Priority::kRdma, bth, nullptr, &aeth, data);
  const auto view = ParseRdmaPacket(p);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->aeth.has_value());
  EXPECT_EQ(view->aeth->msn, 17u);
  ASSERT_EQ(view->payload.size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view->payload.begin()));
}

TEST(Wire, PacketSizeAccounting) {
  // Read request: L2L3L4 + BTH + RETH + iCRC, no payload.
  Bth bth;
  bth.opcode = Opcode::kReadRequest;
  Reth reth{0, 0, 100};
  net::Packet p =
      BuildRdmaPacket(1, 2, net::Priority::kRdma, bth, &reth, nullptr, {});
  EXPECT_EQ(p.bytes.size(),
            net::kL2L3L4Bytes + kBthBytes + kRethBytes + kIcrcBytes);
  // ACK: L2L3L4 + BTH + AETH + iCRC.
  Bth ack;
  ack.opcode = Opcode::kAcknowledge;
  Aeth aeth{};
  net::Packet a =
      BuildRdmaPacket(1, 2, net::Priority::kControl, ack, nullptr, &aeth, {});
  EXPECT_EQ(a.bytes.size(),
            net::kL2L3L4Bytes + kBthBytes + kAethBytes + kIcrcBytes);
}

TEST(Wire, NonRocePortIsNotRdma) {
  net::Packet p = net::MakeUdpPacket(1, 2, 64, net::Priority::kBulk, 5001);
  EXPECT_FALSE(LooksLikeRdma(p));
}

TEST(Wire, OpcodeNamesAreStable) {
  EXPECT_STREQ(OpcodeName(Opcode::kReadRequest), "READ_REQUEST");
  EXPECT_STREQ(OpcodeName(Opcode::kWriteMiddle), "WRITE_MIDDLE");
  EXPECT_STREQ(OpcodeName(Opcode::kAcknowledge), "ACKNOWLEDGE");
}

}  // namespace
}  // namespace cowbird::rdma
