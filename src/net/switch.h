// Output-queued switch with strict-priority egress scheduling and a
// pluggable packet processor.
//
// The processor hook is where Cowbird-P4 lives: every ingress packet flows
// through Process(), which may rewrite it, consume it, or emit additional
// packets (packet "recycling", Section 5.2). The default processor is plain
// L3 forwarding. A processor's own packets (P4 probes and recycled packets)
// skip the pipeline and go straight onto an egress queue (EnqueueEgress).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace cowbird::net {

class Switch;

struct ForwardAction {
  int egress_port = -1;  // -1 → drop
  Packet packet;
};

class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;
  // Transform one ingress packet into zero or more egress actions.
  virtual void Process(Switch& sw, int ingress_port, Packet packet,
                       std::vector<ForwardAction>& out) = 0;
};

class Switch {
 public:
  struct Config {
    Bytes egress_queue_capacity = MiB(4);  // per port, across priorities
    Nanos pipeline_latency = 400;          // ingress→egress, Tofino-like

    // --- shared-fabric congestion (all off by default; the defaults keep
    // every pre-existing run byte-identical) ---

    // RED/ECN: when an egress queue already holds >= ecn_threshold bytes,
    // an arriving ECT packet is rewritten to CE in place. 0 disables.
    Bytes ecn_threshold = 0;
    // PFC: per-ingress buffered-byte watermarks with hysteresis. Crossing
    // pause_threshold sends a pause frame back out of that ingress port's
    // egress link; draining to resume_threshold sends an explicit resume.
    // The pause also self-expires (see kPfcPauseDuration in switch.cc).
    bool pfc_enabled = false;
    Bytes pfc_pause_threshold = KiB(64);
    Bytes pfc_resume_threshold = KiB(32);
  };

  Switch(sim::Simulation& sim, Config config)
      : sim_(&sim), config_(config) {}
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // Creates the egress (switch→device) link for a new port.
  int AddPort(BitRate rate, Nanos propagation);
  Link& EgressLink(int port) { return *ports_[port]->link; }
  int PortCount() const { return static_cast<int>(ports_.size()); }

  void SetRoute(NodeId node, int port);
  // Port a node is reachable through; -1 (drop) when unknown.
  int RouteFor(NodeId node) const;

  // Entry point for device uplinks (wire this as the uplink's receiver).
  void OnIngress(int ingress_port, Packet packet);

  void SetProcessor(PacketProcessor* processor) { processor_ = processor; }

  // Places a processed packet on an egress queue (tail-drops when full):
  // the port's egress link, which holds it until it starts transmitting.
  // The overload taking `ingress_port` attributes the buffered bytes to the
  // port the packet came in on, which is what PFC watermarks count;
  // processor-generated packets (P4 recycling, probes) use the two-argument
  // form and stay un-attributed (ingress -1, never paused against).
  void EnqueueEgress(int port, Packet packet) {
    EnqueueEgress(port, std::move(packet), -1);
  }
  void EnqueueEgress(int port, Packet packet, int ingress_port);

  sim::Simulation& simulation() { return *sim_; }

  std::uint64_t egress_drops(int port) const { return ports_[port]->drops; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t ecn_marked() const { return ecn_marked_; }
  std::uint64_t pfc_pauses_sent() const { return pfc_pauses_sent_; }
  std::uint64_t pfc_resumes_sent() const { return pfc_resumes_sent_; }
  std::uint64_t total_drops() const {
    std::uint64_t total = 0;
    for (const auto& port : ports_) total += port->drops;
    return total;
  }

  // Queue-depth / mark-rate / pause counters as snapshot-time callback
  // gauges, removed when the switch dies. A second bind replaces the first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

 private:
  struct Port {
    // Queues the port's packets (strict priority, PFC pause) and hands each
    // back to OnDequeue, tagged with its ingress port, as it starts.
    std::unique_ptr<Link> link;
    Bytes queued_bytes = 0;
    std::uint64_t drops = 0;
    // PFC state for this port acting as an *ingress*: bytes it currently
    // has buffered anywhere in the switch, and whether it is paused.
    Bytes ingress_buffered = 0;
    bool pause_asserted = false;
  };

  void RunPipeline(int ingress_port, Packet packet);
  // Egress accounting for a packet leaving `port`: its bytes stop counting
  // against the port and its ingress (which may resume that ingress).
  void OnDequeue(int port, const Packet& packet, int ingress_port);
  void UpdatePfcOnEnqueue(int ingress_port);
  void UpdatePfcOnDequeue(int ingress_port);

  sim::Simulation* sim_;
  Config config_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::pair<NodeId, int>> routes_;
  PacketProcessor* processor_ = nullptr;  // null → L3 forwarding
  std::uint64_t forwarded_ = 0;
  std::uint64_t ecn_marked_ = 0;
  std::uint64_t pfc_pauses_sent_ = 0;
  std::uint64_t pfc_resumes_sent_ = 0;
  Bytes queue_high_water_ = 0;  // deepest any single egress queue has been
  telemetry::CallbackGauges gauges_;
  // Per-packet action scratch, reused across pipeline invocations (the
  // pipeline never reenters itself: it only runs from scheduled events).
  std::vector<ForwardAction> pipeline_scratch_;
};

// Star topology host endpoint: one full-duplex attachment to the switch,
// with per-UDP-port receiver demultiplexing (RoCE traffic and benchmark
// flows share a host in Fig 14).
class HostNic {
 public:
  HostNic(sim::Simulation& sim, NodeId id, BitRate rate, Nanos propagation)
      : sim_(&sim),
        id_(id),
        uplink_(std::make_unique<Link>(sim, rate, propagation)) {}

  NodeId id() const { return id_; }

  // `host_name` labels the two links ("uplink[<host>]", "egress[<host>]");
  // empty means "node<id>".
  void ConnectTo(Switch& sw, const std::string& host_name = {}) {
    switch_port_ = sw.AddPort(uplink_->rate(), uplink_->propagation());
    sw.SetRoute(id_, switch_port_);
    uplink_->set_receiver([&sw, port = switch_port_](Packet p) {
      sw.OnIngress(port, std::move(p));
    });
    sw.EgressLink(switch_port_).set_receiver([this](Packet p) {
      Dispatch(std::move(p));
    });
    const std::string host =
        host_name.empty() ? "node" + std::to_string(id_) : host_name;
    uplink_->set_name("uplink[" + host + "]");
    sw.EgressLink(switch_port_).set_name("egress[" + host + "]");
  }

  void Send(Packet packet) { uplink_->Send(std::move(packet)); }

  void SetPortReceiver(std::uint16_t udp_port,
                       std::function<void(Packet)> receiver) {
    port_receivers_.emplace_back(udp_port, std::move(receiver));
  }
  void SetDefaultReceiver(std::function<void(Packet)> receiver) {
    default_receiver_ = std::move(receiver);
  }

  Link& uplink() { return *uplink_; }
  int switch_port() const { return switch_port_; }
  sim::Simulation& simulation() { return *sim_; }

 private:
  void Dispatch(Packet packet) {
    // PFC frames terminate at the MAC: pause (or resume) the uplink's data
    // classes instead of reaching any UDP consumer.
    if (IsPfcFrame(packet)) {
      uplink_->PauseData(PfcPauseDuration(packet));
      return;
    }
    const auto udp = UdpHeader::Parse(
        std::span<const std::uint8_t>(packet.bytes)
            .subspan(kEthernetHeaderBytes + kIpv4HeaderBytes));
    for (auto& [port, receiver] : port_receivers_) {
      if (port == udp.dst_port) {
        receiver(std::move(packet));
        return;
      }
    }
    if (default_receiver_) default_receiver_(std::move(packet));
  }

  sim::Simulation* sim_;
  NodeId id_;
  std::unique_ptr<Link> uplink_;
  int switch_port_ = -1;
  std::vector<std::pair<std::uint16_t, std::function<void(Packet)>>>
      port_receivers_;
  std::function<void(Packet)> default_receiver_;
};

}  // namespace cowbird::net
