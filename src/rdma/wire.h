// RoCEv2 wire format: BTH / RETH / AETH headers (Table 4 of the paper).
//
// Opcodes use the InfiniBand Architecture RC values. Every RDMA message in
// the simulation is a real byte sequence — UDP payload = BTH [RETH|AETH]
// data iCRC — produced and parsed by the functions here. The Cowbird-P4
// pipeline manipulates these same bytes, which keeps the paper's
// header-recycling trick (read response → read request → write) honest.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "net/packet.h"

namespace cowbird::rdma {

enum class Opcode : std::uint8_t {
  kSendFirst = 0x00,
  kSendMiddle = 0x01,
  kSendLast = 0x02,
  kSendOnly = 0x04,
  kWriteFirst = 0x06,
  kWriteMiddle = 0x07,
  kWriteLast = 0x08,
  kWriteOnly = 0x0A,
  kReadRequest = 0x0C,
  kReadResponseFirst = 0x0D,
  kReadResponseMiddle = 0x0E,
  kReadResponseLast = 0x0F,
  kReadResponseOnly = 0x10,
  kAcknowledge = 0x11,
  // Congestion Notification Packet (RoCEv2 CNP, the DCQCN ECN echo): a
  // BTH-only frame whose dest_qp names the *sender-side* QP whose flow
  // must slow down. Carries no RETH/AETH/payload.
  kCnp = 0x81,
};

const char* OpcodeName(Opcode op);

constexpr std::size_t kBthBytes = 12;
constexpr std::size_t kRethBytes = 16;
constexpr std::size_t kAethBytes = 4;
constexpr std::size_t kIcrcBytes = 4;

// Path MTU: payload bytes per data packet. The paper's Section 5.2 describes
// segmentation at 1024 bytes; that is the RoCE path MTU in the testbed.
constexpr std::size_t kPathMtu = 1024;

// AETH syndrome values (IBA 9.7.5.2, simplified).
constexpr std::uint8_t kSyndromeAck = 0x00;
constexpr std::uint8_t kSyndromeRnrNak = 0x20;
constexpr std::uint8_t kSyndromeNakSequenceError = 0x60;
constexpr std::uint8_t kSyndromeNakRemoteAccess = 0x62;

struct Bth {
  Opcode opcode = Opcode::kAcknowledge;
  bool solicited = false;
  bool ack_request = false;
  std::uint16_t pkey = 0xFFFF;
  std::uint32_t dest_qp = 0;  // 24 bits
  std::uint32_t psn = 0;      // 24 bits

  void Serialize(std::span<std::uint8_t> buf) const;
  static Bth Parse(std::span<const std::uint8_t> buf);
};

struct Reth {
  std::uint64_t vaddr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t dma_length = 0;

  void Serialize(std::span<std::uint8_t> buf) const;
  static Reth Parse(std::span<const std::uint8_t> buf);
};

struct Aeth {
  std::uint8_t syndrome = kSyndromeAck;
  std::uint32_t msn = 0;  // 24 bits

  void Serialize(std::span<std::uint8_t> buf) const;
  static Aeth Parse(std::span<const std::uint8_t> buf);
};

constexpr bool HasReth(Opcode op) {
  return op == Opcode::kReadRequest || op == Opcode::kWriteFirst ||
         op == Opcode::kWriteOnly;
}
constexpr bool HasAeth(Opcode op) {
  return op == Opcode::kReadResponseFirst ||
         op == Opcode::kReadResponseLast ||
         op == Opcode::kReadResponseOnly || op == Opcode::kAcknowledge;
}
constexpr bool IsReadResponse(Opcode op) {
  return op == Opcode::kReadResponseFirst ||
         op == Opcode::kReadResponseMiddle ||
         op == Opcode::kReadResponseLast || op == Opcode::kReadResponseOnly;
}
constexpr bool IsWrite(Opcode op) {
  return op == Opcode::kWriteFirst || op == Opcode::kWriteMiddle ||
         op == Opcode::kWriteLast || op == Opcode::kWriteOnly;
}
constexpr bool IsSend(Opcode op) {
  return op == Opcode::kSendFirst || op == Opcode::kSendMiddle ||
         op == Opcode::kSendLast || op == Opcode::kSendOnly;
}
// Packets that carry upper-layer data.
constexpr bool CarriesPayload(Opcode op) {
  return IsReadResponse(op) || IsWrite(op) || IsSend(op);
}
// Last packet of a segmented message (or the only one).
constexpr bool IsLastOrOnly(Opcode op) {
  return op == Opcode::kSendLast || op == Opcode::kSendOnly ||
         op == Opcode::kWriteLast || op == Opcode::kWriteOnly ||
         op == Opcode::kReadResponseLast || op == Opcode::kReadResponseOnly;
}

// Number of data packets needed to move `len` payload bytes. A zero-length
// message still occupies one packet.
constexpr std::uint32_t SegmentCount(std::uint64_t len) {
  if (len == 0) return 1;
  return static_cast<std::uint32_t>((len + kPathMtu - 1) / kPathMtu);
}

// Parsed view of an RDMA packet's UDP payload.
struct RdmaMessageView {
  Bth bth;
  std::optional<Reth> reth;
  std::optional<Aeth> aeth;
  std::span<const std::uint8_t> payload;  // upper-layer data, no iCRC
};

// Parses the UDP payload of `packet`; nullopt if it is too short for its BTH,
// the RETH or AETH its opcode names, or the iCRC. Anything can arrive on the
// wire, so a malformed packet is dropped by the receiver, never fatal.
std::optional<RdmaMessageView> ParseRdmaPacket(const net::Packet& packet);

// True if the UDP payload looks like an RDMA message (used by demux).
bool LooksLikeRdma(const net::Packet& packet);

// Builds a full RoCEv2 frame. `payload` may be empty (read requests, ACKs).
net::Packet BuildRdmaPacket(net::NodeId src, net::NodeId dst,
                            net::Priority priority, const Bth& bth,
                            const Reth* reth, const Aeth* aeth,
                            std::span<const std::uint8_t> payload);

// In-place variant: the frame is built with a zeroed `payload_len`-byte
// payload region and `*payload` is pointed at it, so segmenting senders DMA
// straight into the frame instead of staging each chunk in a scratch vector.
net::Packet BuildRdmaPacketInPlace(net::NodeId src, net::NodeId dst,
                                   net::Priority priority, const Bth& bth,
                                   const Reth* reth, const Aeth* aeth,
                                   std::size_t payload_len,
                                   std::span<std::uint8_t>* payload);

// 24-bit PSN arithmetic.
constexpr std::uint32_t kPsnMask = 0xFFFFFF;
constexpr std::uint32_t PsnAdd(std::uint32_t psn, std::uint32_t n) {
  return (psn + n) & kPsnMask;
}
// Signed distance a−b in 24-bit space, in [-2^23, 2^23).
constexpr std::int32_t PsnDistance(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t diff = (a - b) & kPsnMask;
  return diff < (1u << 23) ? static_cast<std::int32_t>(diff)
                           : static_cast<std::int32_t>(diff) - (1 << 24);
}

}  // namespace cowbird::rdma
