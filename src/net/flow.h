// Contending traffic for the bandwidth-overhead experiment (Figure 14).
//
// A GreedyFlow models an always-backlogged bulk transfer (the paper uses
// iperf3): the source keeps kWindow MTU-sized packets in flight to a sink
// on another host; the sink returns a small ACK per packet, and every ACK
// releases the next data packet. With a deep window this saturates whatever
// bandwidth strict-priority scheduling leaves to the bulk class, which is
// the quantity Figure 14 measures.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "net/packet.h"
#include "net/switch.h"
#include "sim/simulation.h"

namespace cowbird::net {

constexpr std::uint16_t kFlowBasePort = 5001;

class GreedyFlow {
 public:
  static constexpr Bytes kPayloadBytes = 1400;
  static constexpr int kWindow = 64;

  GreedyFlow(HostNic& source, HostNic& sink, std::uint16_t flow_index)
      : source_(&source),
        sink_(&sink),
        port_(static_cast<std::uint16_t>(kFlowBasePort + flow_index)) {
    // Data packets arrive at the sink; ACKs return to the source on the
    // same UDP port.
    sink_->SetPortReceiver(port_, [this](Packet p) { OnData(std::move(p)); });
    source_->SetPortReceiver(port_, [this](Packet) { OnAck(); });
  }

  void Start() {
    started_at_ = source_->simulation().Now();
    for (int i = 0; i < kWindow; ++i) SendData();
  }

  // Goodput since Start(), in Gbps of payload bytes.
  double GoodputGbps() const {
    const Nanos elapsed = source_->simulation().Now() - started_at_;
    if (elapsed <= 0) return 0.0;
    return static_cast<double>(delivered_bytes_) * 8.0 /
           static_cast<double>(elapsed);
  }

 private:
  void SendData() {
    Packet p = MakeUdpPacket(source_->id(), sink_->id(), kPayloadBytes,
                             Priority::kBulk, port_);
    source_->Send(std::move(p));
  }

  void OnData(Packet p) {
    delivered_bytes_ += p.bytes.size() - kL2L3L4Bytes;
    Packet ack = MakeUdpPacket(sink_->id(), source_->id(), /*payload_len=*/8,
                               Priority::kControl, port_);
    sink_->Send(std::move(ack));
  }

  void OnAck() { SendData(); }

  HostNic* source_;
  HostNic* sink_;
  std::uint16_t port_;
  Nanos started_at_ = 0;
  std::uint64_t delivered_bytes_ = 0;
};

}  // namespace cowbird::net
