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
// leaky bucket at the flow's current rate. A flow that has never seen a
// CNP (or has recovered to line rate) is not paced at all — its packets
// take the identical code path and timestamps as a congestion-disabled
// run, which is what keeps congestion-*enabled*-but-unmarked runs
// byte-identical to congestion-off goldens.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
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

  // Sender side: admission delay (ns from now) before `wire_bytes` may
  // leave on flow `qpn`, accounting its serialization at the flow rate.
  // Returns 0 for unpaced flows.
  Nanos ReserveSend(std::uint32_t qpn, Bytes wire_bytes);

  // Sender side: a CNP for local QP `qpn` arrived — cut the flow's rate.
  void OnCnpReceived(std::uint32_t qpn);

  // Receiver side: a CE-marked data packet arrived on `qp`; echo a CNP to
  // the flow's source unless one was sent within cnp_interval.
  void NoteCeMark(const QueuePair& qp);

  double FlowRateGbps(std::uint32_t qpn) const;
  std::uint64_t cnps_received() const { return cnps_received_; }
  std::uint64_t rate_decreases() const { return rate_decreases_; }

  // Aggregate counters plus a per-flow dcqcn_rate_gbps gauge (labelled
  // qp=<qpn>) for every flow that exists at bind time or is created while
  // bound, all removed when the manager dies. A second bind replaces the
  // first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

 private:
  struct Flow {
    double rate_gbps = 0;
    double target_gbps = 0;
    double alpha = 1.0;
    bool paced = false;
    int recovery_stage = 0;
    Nanos next_free = 0;      // leaky bucket: earliest next departure
    Nanos last_cnp_out = -1;  // receiver-side echo rate limit
    sim::TimerHandle alpha_timer;
    sim::TimerHandle recovery_timer;
  };

  Flow& FlowFor(std::uint32_t qpn);
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
