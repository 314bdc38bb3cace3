// DCQCN-style congestion manager: the rate-control half of the RoCEv2
// engine split (the Go-Back-N half lives in rdma::ReliabilityManager).
//
// One manager per Device, one Flow per QP. The receiver side echoes
// CE-marked data packets as CNPs (rate-limited per flow); the sender side
// reacts to a CNP with a multiplicative rate decrease and then recovers
// through the standard DCQCN ladder — fast recovery toward the pre-cut
// target, additive increase, hyper increase — driven by cancelable timers
// on the virtual clock, so every run is deterministic.
//
// Pacing is exact-token: a paced flow's packets are admitted through a
// leaky bucket at the flow's current rate and held, in PSN order, by the
// flow itself until their slot comes. A flow that has never seen a CNP
// (or has recovered to line rate and holds nothing) is not paced at all —
// its packets take the identical code path and timestamps as a
// congestion-disabled run, which is what keeps congestion-*enabled*-but-
// unmarked runs byte-identical to congestion-off goldens.
#pragma once

#include <cstdint>
#include <vector>

#include "common/pool.h"
#include "common/units.h"
#include "net/packet.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace cowbird::rdma {

class Device;
class QueuePair;

class CongestionManager {
 public:
  CongestionManager(Device& device, const DcqcnConfig& config,
                    double line_rate_gbps);
  CongestionManager(const CongestionManager&) = delete;
  CongestionManager& operator=(const CongestionManager&) = delete;

  // Sender side: stamps `packet` ECT(0). Returns false when flow `qpn` is
  // unpaced and holds nothing: the caller sends the packet as is.
  // Otherwise the flow takes the packet and holds it behind its earlier
  // ones until the bucket's next slot plus the NIC's processing delay; its
  // departure key (time, seq) is taken here, and only the flow's head has
  // an event.
  bool Hold(std::uint32_t qpn, net::Packet& packet);

  // Sender side: a CNP for local QP `qpn` arrived — cut the flow's rate.
  void OnCnpReceived(std::uint32_t qpn);

  // Receiver side: a CE-marked data packet arrived on `qp`; echo a CNP to
  // the flow's source unless one was sent within cnp_interval.
  void NoteCeMark(const QueuePair& qp);

  double FlowRateGbps(std::uint32_t qpn) const;
  std::uint64_t cnps_received() const { return cnps_received_; }

  // Aggregate counters plus a per-flow dcqcn_rate_gbps gauge (labelled
  // qp=<qpn>) for every flow that exists at bind time or is created while
  // bound, all removed when the manager dies. A second bind replaces the
  // first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

 private:
  // A packet the flow holds, keyed as the event that sends it would have
  // been when scheduled at emit.
  struct HeldPacket {
    Nanos when = 0;
    std::uint64_t seq = 0;
    net::Packet packet;
  };

  struct Flow {
    double rate_gbps = 0;
    double target_gbps = 0;
    double alpha = 1.0;
    bool paced = false;
    int recovery_stage = 0;
    Nanos next_free = 0;      // leaky bucket: earliest next departure
    Nanos last_cnp_out = -1;  // receiver-side echo rate limit
    // Departure order; keys rise because next_free never moves back.
    FixedDeque<HeldPacket> held;
    sim::TimerHandle alpha_timer;
    sim::TimerHandle recovery_timer;
  };

  Flow& FlowFor(std::uint32_t qpn);
  void ScheduleHead(std::uint32_t qpn);
  void SendHead(std::uint32_t qpn);
  void DecayAlpha(std::uint32_t qpn);
  void RecoverRate(std::uint32_t qpn);
  void StopPacing(std::uint32_t qpn);
  void BindFlowGauge(std::uint32_t qpn);

  Device* device_;
  DcqcnConfig config_;
  double line_rate_gbps_;
  std::vector<Flow> flows_;  // indexed by qpn - 1, grown lazily
  std::uint64_t cnps_sent_ = 0;
  std::uint64_t cnps_received_ = 0;
  std::uint64_t rate_decreases_ = 0;
  // Where flows created while bound register their rate gauge.
  telemetry::MetricRegistry* telemetry_registry_ = nullptr;
  telemetry::Labels telemetry_labels_;
  telemetry::CallbackGauges gauges_;
};

}  // namespace cowbird::rdma
