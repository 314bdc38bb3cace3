#include "rdma/wire.h"

#include "net/bytes.h"

namespace cowbird::rdma {

using net::GetU16;
using net::GetU24;
using net::GetU32;
using net::GetU64;
using net::GetU8;
using net::PutU16;
using net::PutU24;
using net::PutU32;
using net::PutU64;
using net::PutU8;

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kSendFirst: return "SEND_FIRST";
    case Opcode::kSendMiddle: return "SEND_MIDDLE";
    case Opcode::kSendLast: return "SEND_LAST";
    case Opcode::kSendOnly: return "SEND_ONLY";
    case Opcode::kWriteFirst: return "WRITE_FIRST";
    case Opcode::kWriteMiddle: return "WRITE_MIDDLE";
    case Opcode::kWriteLast: return "WRITE_LAST";
    case Opcode::kWriteOnly: return "WRITE_ONLY";
    case Opcode::kReadRequest: return "READ_REQUEST";
    case Opcode::kReadResponseFirst: return "READ_RESP_FIRST";
    case Opcode::kReadResponseMiddle: return "READ_RESP_MIDDLE";
    case Opcode::kReadResponseLast: return "READ_RESP_LAST";
    case Opcode::kReadResponseOnly: return "READ_RESP_ONLY";
    case Opcode::kAcknowledge: return "ACKNOWLEDGE";
    case Opcode::kCnp: return "CNP";
  }
  return "UNKNOWN";
}

void Bth::Serialize(std::span<std::uint8_t> buf) const {
  COWBIRD_DCHECK(buf.size() >= kBthBytes);
  PutU8(buf, 0, static_cast<std::uint8_t>(opcode));
  PutU8(buf, 1, static_cast<std::uint8_t>(solicited ? 0x80 : 0x00));
  PutU16(buf, 2, pkey);
  PutU8(buf, 4, 0);  // reserved
  PutU24(buf, 5, dest_qp & kPsnMask);
  PutU8(buf, 8, static_cast<std::uint8_t>(ack_request ? 0x80 : 0x00));
  PutU24(buf, 9, psn & kPsnMask);
}

Bth Bth::Parse(std::span<const std::uint8_t> buf) {
  COWBIRD_DCHECK(buf.size() >= kBthBytes);
  Bth h;
  h.opcode = static_cast<Opcode>(GetU8(buf, 0));
  h.solicited = (GetU8(buf, 1) & 0x80) != 0;
  h.pkey = GetU16(buf, 2);
  h.dest_qp = GetU24(buf, 5);
  h.ack_request = (GetU8(buf, 8) & 0x80) != 0;
  h.psn = GetU24(buf, 9);
  return h;
}

void Reth::Serialize(std::span<std::uint8_t> buf) const {
  COWBIRD_DCHECK(buf.size() >= kRethBytes);
  PutU64(buf, 0, vaddr);
  PutU32(buf, 8, rkey);
  PutU32(buf, 12, dma_length);
}

Reth Reth::Parse(std::span<const std::uint8_t> buf) {
  COWBIRD_DCHECK(buf.size() >= kRethBytes);
  Reth h;
  h.vaddr = GetU64(buf, 0);
  h.rkey = GetU32(buf, 8);
  h.dma_length = GetU32(buf, 12);
  return h;
}

void Aeth::Serialize(std::span<std::uint8_t> buf) const {
  COWBIRD_DCHECK(buf.size() >= kAethBytes);
  PutU8(buf, 0, syndrome);
  PutU24(buf, 1, msn & kPsnMask);
}

Aeth Aeth::Parse(std::span<const std::uint8_t> buf) {
  COWBIRD_DCHECK(buf.size() >= kAethBytes);
  Aeth h;
  h.syndrome = GetU8(buf, 0);
  h.msn = GetU24(buf, 1);
  return h;
}

bool LooksLikeRdma(const net::Packet& packet) {
  if (packet.bytes.size() < net::kL2L3L4Bytes + kBthBytes + kIcrcBytes) {
    return false;
  }
  const auto udp = net::UdpHeader::Parse(
      std::span<const std::uint8_t>(packet.bytes)
          .subspan(net::kEthernetHeaderBytes + net::kIpv4HeaderBytes));
  return udp.dst_port == net::kRoceUdpPort;
}

std::optional<RdmaMessageView> ParseRdmaPacket(const net::Packet& packet) {
  auto body = packet.L4Payload();
  if (body.size() < kBthBytes + kIcrcBytes) return std::nullopt;
  RdmaMessageView view;
  view.bth = Bth::Parse(body);
  std::size_t offset = kBthBytes;
  if (HasReth(view.bth.opcode)) {
    if (body.size() < offset + kRethBytes + kIcrcBytes) return std::nullopt;
    view.reth = Reth::Parse(body.subspan(offset));
    offset += kRethBytes;
  }
  if (HasAeth(view.bth.opcode)) {
    if (body.size() < offset + kAethBytes + kIcrcBytes) return std::nullopt;
    view.aeth = Aeth::Parse(body.subspan(offset));
    offset += kAethBytes;
  }
  view.payload = body.subspan(offset, body.size() - offset - kIcrcBytes);
  return view;
}

net::Packet BuildRdmaPacketInPlace(net::NodeId src, net::NodeId dst,
                                   net::Priority priority, const Bth& bth,
                                   const Reth* reth, const Aeth* aeth,
                                   std::size_t payload_len,
                                   std::span<std::uint8_t>* payload) {
  COWBIRD_CHECK(HasReth(bth.opcode) == (reth != nullptr));
  COWBIRD_CHECK(HasAeth(bth.opcode) == (aeth != nullptr));
  std::size_t len = kBthBytes + kIcrcBytes + payload_len;
  if (reth != nullptr) len += kRethBytes;
  if (aeth != nullptr) len += kAethBytes;
  net::Packet packet = net::MakeUdpPacket(src, dst, len, priority);
  auto body = packet.MutableL4Payload();
  bth.Serialize(body);
  std::size_t offset = kBthBytes;
  if (reth != nullptr) {
    reth->Serialize(body.subspan(offset));
    offset += kRethBytes;
  }
  if (aeth != nullptr) {
    aeth->Serialize(body.subspan(offset));
    offset += kAethBytes;
  }
  if (payload != nullptr) *payload = body.subspan(offset, payload_len);
  // iCRC left zero: programmable switches cannot compute it, so the paper
  // (and this model) disables the end-host check (Section 5.1, footnote 1).
  return packet;
}

net::Packet BuildRdmaPacket(net::NodeId src, net::NodeId dst,
                            net::Priority priority, const Bth& bth,
                            const Reth* reth, const Aeth* aeth,
                            std::span<const std::uint8_t> payload) {
  std::span<std::uint8_t> dst_payload;
  net::Packet packet = BuildRdmaPacketInPlace(
      src, dst, priority, bth, reth, aeth, payload.size(), &dst_payload);
  if (!payload.empty()) {
    std::copy(payload.begin(), payload.end(), dst_payload.begin());
  }
  return packet;
}

}  // namespace cowbird::rdma
