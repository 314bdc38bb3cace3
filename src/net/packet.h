// Packets and the Ethernet/IPv4/UDP encapsulation carried by every RoCEv2
// message in the simulation.
//
// A Packet owns its full wire bytes; the struct-level header types here are
// views that serialize to / parse from those bytes at fixed offsets (none of
// the protocols involved have options in our use). Higher layers (rdma/wire)
// append BTH/RETH/AETH after the UDP header.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/pool.h"
#include "common/units.h"
#include "net/bytes.h"

namespace cowbird::net {

using NodeId = std::uint32_t;

constexpr std::size_t kEthernetHeaderBytes = 14;
constexpr std::size_t kIpv4HeaderBytes = 20;
constexpr std::size_t kUdpHeaderBytes = 8;
constexpr std::size_t kL2L3L4Bytes =
    kEthernetHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes;
// Preamble (8) + inter-frame gap (12) + FCS (4): occupies wire time but is
// not part of the buffered bytes.
constexpr std::size_t kWireExtraBytes = 24;
constexpr std::uint16_t kRoceUdpPort = 4791;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
// IEEE 802.3x/802.1Qbb flow-control frames (PFC pause/resume).
constexpr std::uint16_t kEtherTypePfc = 0x8808;
constexpr std::uint8_t kIpProtoUdp = 17;

// ECN codepoints (RFC 3168, low two bits of the IPv4 TOS byte). Senders
// with congestion control enabled stamp ECT(0); a congested switch queue
// rewrites ECT to CE in place.
constexpr std::uint8_t kEcnNotCapable = 0b00;
constexpr std::uint8_t kEcnEct0 = 0b10;
constexpr std::uint8_t kEcnCe = 0b11;

struct EthernetHeader {
  std::uint64_t dst_mac = 0;  // low 48 bits used
  std::uint64_t src_mac = 0;
  std::uint16_t ether_type = kEtherTypeIpv4;

  void Serialize(std::span<std::uint8_t> buf) const {
    COWBIRD_DCHECK(buf.size() >= kEthernetHeaderBytes);
    PutU16(buf, 0, static_cast<std::uint16_t>(dst_mac >> 32));
    PutU32(buf, 2, static_cast<std::uint32_t>(dst_mac));
    PutU16(buf, 6, static_cast<std::uint16_t>(src_mac >> 32));
    PutU32(buf, 8, static_cast<std::uint32_t>(src_mac));
    PutU16(buf, 12, ether_type);
  }
  static EthernetHeader Parse(std::span<const std::uint8_t> buf) {
    COWBIRD_DCHECK(buf.size() >= kEthernetHeaderBytes);
    EthernetHeader h;
    h.dst_mac = (static_cast<std::uint64_t>(GetU16(buf, 0)) << 32) |
                GetU32(buf, 2);
    h.src_mac = (static_cast<std::uint64_t>(GetU16(buf, 6)) << 32) |
                GetU32(buf, 8);
    h.ether_type = GetU16(buf, 12);
    return h;
  }
};

struct Ipv4Header {
  std::uint8_t dscp = 0;  // carries the priority class on the wire
  std::uint8_t ecn = kEcnNotCapable;  // RFC 3168 codepoint (TOS low bits)
  std::uint16_t total_length = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;

  void Serialize(std::span<std::uint8_t> buf) const {
    COWBIRD_DCHECK(buf.size() >= kIpv4HeaderBytes);
    PutU8(buf, 0, 0x45);  // version 4, IHL 5
    PutU8(buf, 1, static_cast<std::uint8_t>((dscp << 2) | (ecn & 3)));
    PutU16(buf, 2, total_length);
    PutU16(buf, 4, 0);  // identification
    PutU16(buf, 6, 0x4000);  // don't fragment
    PutU8(buf, 8, ttl);
    PutU8(buf, 9, protocol);
    PutU16(buf, 10, 0);  // checksum: computed lazily by real NICs; unused here
    PutU32(buf, 12, src_ip);
    PutU32(buf, 16, dst_ip);
  }
  static Ipv4Header Parse(std::span<const std::uint8_t> buf) {
    COWBIRD_DCHECK(buf.size() >= kIpv4HeaderBytes);
    Ipv4Header h;
    h.dscp = static_cast<std::uint8_t>(GetU8(buf, 1) >> 2);
    h.ecn = static_cast<std::uint8_t>(GetU8(buf, 1) & 3);
    h.total_length = GetU16(buf, 2);
    h.ttl = GetU8(buf, 8);
    h.protocol = GetU8(buf, 9);
    h.src_ip = GetU32(buf, 12);
    h.dst_ip = GetU32(buf, 16);
    return h;
  }
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;

  void Serialize(std::span<std::uint8_t> buf) const {
    COWBIRD_DCHECK(buf.size() >= kUdpHeaderBytes);
    PutU16(buf, 0, src_port);
    PutU16(buf, 2, dst_port);
    PutU16(buf, 4, length);
    PutU16(buf, 6, 0);  // checksum unused
  }
  static UdpHeader Parse(std::span<const std::uint8_t> buf) {
    COWBIRD_DCHECK(buf.size() >= kUdpHeaderBytes);
    UdpHeader h;
    h.src_port = GetU16(buf, 0);
    h.dst_port = GetU16(buf, 2);
    h.length = GetU16(buf, 4);
    return h;
  }
};

// Traffic classes used in the evaluation. Lower numeric value = lower
// priority. Probes ride the lowest class (Section 5.2, Phase II).
enum class Priority : std::uint8_t {
  kProbe = 0,     // Cowbird-P4 probe packets, scavenger class
  kBulk = 1,      // contending user traffic (Fig 14 TCP flows)
  kRdma = 2,      // RDMA data packets (configured *above* user traffic in
                  // Fig 14 to bound the worst case, per the paper)
  kControl = 3,   // ACKs / control
  kPause = 4,     // PFC frames: leave a port ahead of everything queued
  kLevels = 5,
};

// Frame storage backed by a recycled slot cache instead of the heap. Every
// hop in the simulation copies or moves a Packet at least once (into the
// delivery event, through the switch pipeline, into the fault injector), and
// a std::vector here meant one allocation per copy. Slots are 1536 bytes —
// enough for the largest RDMA frame (1098B) and the bulk-flow MTU frames
// (1442B); anything larger falls back to an exact heap allocation, counted
// in the slot cache's exhausted_total so the misconfiguration is visible in
// the pool gauges. The cache is thread-local because simulations are
// thread-confined.
//
// The deliberately vector-shaped API (size/resize/data/begin/end, implicit
// span conversion, zero-fill on growth) keeps the wire-format code
// unchanged.
class PacketBuffer {
 public:
  static constexpr std::size_t kSlotBytes = 1536;

  PacketBuffer() = default;
  PacketBuffer(const PacketBuffer& other) { CopyFrom(other); }
  PacketBuffer& operator=(const PacketBuffer& other) {
    if (this != &other) {
      ReleaseStorage();
      CopyFrom(other);
    }
    return *this;
  }
  PacketBuffer(PacketBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), cap_(other.cap_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      if (cap_ != 0) ReleaseStorage();
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }
  // Moved-from buffers (most of them: every hop moves its packet on) own
  // no storage, so the slot-cache call stays off their path, here and in
  // the move assignment above.
  ~PacketBuffer() {
    if (cap_ != 0) ReleaseStorage();
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t* begin() { return data_; }
  std::uint8_t* end() { return data_ + size_; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }
  std::uint8_t& operator[](std::size_t i) {
    COWBIRD_DCHECK(i < size_);
    return data_[i];
  }
  std::uint8_t operator[](std::size_t i) const {
    COWBIRD_DCHECK(i < size_);
    return data_[i];
  }

  // vector semantics: growth zero-fills the new tail, shrinking keeps data.
  void resize(std::size_t n) {
    if (n > cap_) GrowTo(n);
    if (n > size_) std::memset(data_ + size_, 0, n - size_);
    size_ = n;
  }

  operator std::span<std::uint8_t>() { return {data_, size_}; }
  operator std::span<const std::uint8_t>() const { return {data_, size_}; }

  // Counters of the calling thread's slot cache (bindable as pool gauges).
  static const PoolStats& stats() { return Cache().stats; }

 private:
  struct SlotCache {
    std::vector<std::uint8_t*> free;
    PoolStats stats;
    ~SlotCache() {
      for (std::uint8_t* slot : free) delete[] slot;
    }
  };
  static SlotCache& Cache() {
    thread_local SlotCache cache;
    return cache;
  }

  void GrowTo(std::size_t n) {
    std::uint8_t* next = nullptr;
    std::size_t next_cap = 0;
    if (n <= kSlotBytes) {
      SlotCache& cache = Cache();
      if (cache.free.empty()) {
        next = new std::uint8_t[kSlotBytes];
      } else {
        next = cache.free.back();
        cache.free.pop_back();
      }
      next_cap = kSlotBytes;
      ++cache.stats.in_use;
      if (cache.stats.in_use > cache.stats.high_water) {
        cache.stats.high_water = cache.stats.in_use;
      }
    } else {
      // Oversized frame: exact heap allocation, visible in the gauges.
      next = new std::uint8_t[n];
      next_cap = n;
      ++Cache().stats.exhausted_total;
    }
    if (size_ > 0) std::memcpy(next, data_, size_);
    ReleaseStorage();
    data_ = next;
    cap_ = next_cap;
  }

  void CopyFrom(const PacketBuffer& other) {
    size_ = 0;
    cap_ = 0;
    data_ = nullptr;
    if (other.size_ == 0) return;
    GrowTo(other.size_);
    std::memcpy(data_, other.data_, other.size_);
    size_ = other.size_;
  }

  void ReleaseStorage() {
    if (cap_ == kSlotBytes) {
      Cache().free.push_back(data_);
      --Cache().stats.in_use;
    } else if (cap_ > 0) {
      delete[] data_;
    }
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

struct Packet {
  PacketBuffer bytes;  // full frame: Eth + IP + UDP + payload
  NodeId src = 0;
  NodeId dst = 0;
  Priority priority = Priority::kRdma;

  Bytes WireBytes() const { return bytes.size() + kWireExtraBytes; }

  // ECN codepoint of IPv4 frames, read/rewritten in place (frame offset 15
  // is the TOS byte). Non-IPv4 frames (PFC) report kEcnNotCapable.
  std::uint8_t EcnBits() const {
    if (bytes.size() < kEthernetHeaderBytes + kIpv4HeaderBytes) {
      return kEcnNotCapable;
    }
    if (EthernetHeader::Parse(bytes).ether_type != kEtherTypeIpv4) {
      return kEcnNotCapable;
    }
    return static_cast<std::uint8_t>(bytes[kEthernetHeaderBytes + 1] & 3);
  }
  bool IsEcnCapable() const { return (EcnBits() & kEcnEct0) != 0; }
  void SetEcnBits(std::uint8_t codepoint) {
    COWBIRD_DCHECK(bytes.size() >= kEthernetHeaderBytes + kIpv4HeaderBytes);
    std::uint8_t& tos = bytes[kEthernetHeaderBytes + 1];
    tos = static_cast<std::uint8_t>((tos & ~3u) | (codepoint & 3u));
  }

  std::span<const std::uint8_t> L3() const {
    return std::span<const std::uint8_t>(bytes).subspan(kEthernetHeaderBytes);
  }
  std::span<const std::uint8_t> L4Payload() const {
    return std::span<const std::uint8_t>(bytes).subspan(kL2L3L4Bytes);
  }
  std::span<std::uint8_t> MutableL4Payload() {
    return std::span<std::uint8_t>(bytes).subspan(kL2L3L4Bytes);
  }
};

// Builds the L2–L4 encapsulation around `payload_len` bytes of upper-layer
// content and returns the packet with payload zeroed, ready to be filled.
inline Packet MakeUdpPacket(NodeId src, NodeId dst, std::size_t payload_len,
                            Priority priority,
                            std::uint16_t dst_port = kRoceUdpPort) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.priority = priority;
  p.bytes.resize(kL2L3L4Bytes + payload_len);
  EthernetHeader eth;
  eth.dst_mac = 0x0200'0000'0000ull | dst;
  eth.src_mac = 0x0200'0000'0000ull | src;
  eth.Serialize(p.bytes);
  Ipv4Header ip;
  ip.dscp = static_cast<std::uint8_t>(priority);
  ip.src_ip = 0x0A000000u | src;  // 10.0.0.0/8
  ip.dst_ip = 0x0A000000u | dst;
  ip.total_length =
      static_cast<std::uint16_t>(kIpv4HeaderBytes + kUdpHeaderBytes +
                                 payload_len);
  ip.Serialize(std::span<std::uint8_t>(p.bytes).subspan(kEthernetHeaderBytes));
  UdpHeader udp;
  udp.src_port = 0xC000;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderBytes + payload_len);
  udp.Serialize(std::span<std::uint8_t>(p.bytes).subspan(
      kEthernetHeaderBytes + kIpv4HeaderBytes));
  return p;
}

// --- PFC (priority flow control) frames ---------------------------------
//
// Modeled after 802.3x pause frames: an Ethernet header with ethertype
// 0x8808, a 16-bit opcode, and the pause duration in virtual nanoseconds
// (the real standard counts 512-bit quanta; the simulation pauses for an
// explicit duration and refreshes before expiry while congestion
// persists). A duration of zero is a resume. Pause applies to the data
// classes only — Priority::kControl always flows, which is what keeps the
// pause/CNP control loop itself deadlock-free. The frames ride their own
// top class, Priority::kPause, so they leave ahead of any queued packet.
constexpr std::uint16_t kPfcOpcodePause = 0x0101;
constexpr std::size_t kPfcFrameBytes = kEthernetHeaderBytes + 2 + 8;

inline Packet MakePfcFrame(NodeId src, NodeId dst, Nanos pause_duration) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.priority = Priority::kPause;
  p.bytes.resize(kPfcFrameBytes);
  EthernetHeader eth;
  eth.dst_mac = 0x0180'C200'0001ull;  // 802.3x reserved multicast
  eth.src_mac = 0x0200'0000'0000ull | src;
  eth.ether_type = kEtherTypePfc;
  eth.Serialize(p.bytes);
  PutU16(p.bytes, kEthernetHeaderBytes, kPfcOpcodePause);
  PutU64(p.bytes, kEthernetHeaderBytes + 2,
         static_cast<std::uint64_t>(pause_duration));
  return p;
}

inline bool IsPfcFrame(const Packet& p) {
  return p.bytes.size() >= kPfcFrameBytes &&
         EthernetHeader::Parse(p.bytes).ether_type == kEtherTypePfc;
}

// Pause duration carried by a PFC frame; zero means resume.
inline Nanos PfcPauseDuration(const Packet& p) {
  COWBIRD_DCHECK(IsPfcFrame(p));
  return static_cast<Nanos>(GetU64(p.bytes, kEthernetHeaderBytes + 2));
}

}  // namespace cowbird::net
