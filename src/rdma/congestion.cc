#include "rdma/congestion.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "rdma/device.h"
#include "rdma/qp.h"

namespace cowbird::rdma {

namespace {
// DCQCN control-law constants. Timer periods are compressed relative to
// the published DCQCN constants (55 us / 40 Mbps steps) so flows converge
// within the simulated millisecond-scale measure windows; the control
// *law* is unchanged.
constexpr double kAlphaGain = 1.0 / 16.0;  // alpha EWMA gain
constexpr double kRateHaiGbps = 10.0;      // hyper-increase step
// Stages of (rate+target)/2 before additive increase.
constexpr int kFastRecoveryStages = 3;
// Alpha decay period (no-CNP window).
constexpr Nanos kAlphaTimer = Micros(20);
constexpr Nanos kRecoveryTimer = Micros(25);  // rate-increase period
}  // namespace

CongestionManager::CongestionManager(Device& device,
                                     const DcqcnConfig& config,
                                     double line_rate_gbps)
    : device_(&device), config_(config), line_rate_gbps_(line_rate_gbps) {
  COWBIRD_CHECK(line_rate_gbps_ > 0);
}

CongestionManager::Flow& CongestionManager::FlowFor(std::uint32_t qpn) {
  COWBIRD_CHECK(qpn >= 1);
  if (flows_.size() < qpn) {
    const std::size_t first_new = flows_.size();
    flows_.resize(qpn);
    for (std::size_t i = first_new; i < flows_.size(); ++i) {
      flows_[i].rate_gbps = line_rate_gbps_;
      flows_[i].target_gbps = line_rate_gbps_;
      if (telemetry_registry_ != nullptr) {
        BindFlowGauge(static_cast<std::uint32_t>(i + 1));
      }
    }
  }
  return flows_[qpn - 1];
}

bool CongestionManager::Hold(std::uint32_t qpn, net::Packet& packet) {
  packet.SetEcnBits(net::kEcnEct0);
  Flow& flow = FlowFor(qpn);
  if (!flow.paced && flow.held.empty()) return false;
  sim::Simulation& sim = device_->simulation();
  const Nanos start = std::max(sim.Now(), flow.next_free);
  // Serialization time of this packet at the flow's current rate.
  const auto tx = static_cast<Nanos>(
      static_cast<double>(packet.WireBytes()) * 8.0 / flow.rate_gbps);
  flow.next_free = start + tx;
  flow.held.push_back(HeldPacket{start + Device::kProcessingDelay,
                                 sim.Reserve(), std::move(packet)});
  if (flow.held.size() == 1) ScheduleHead(qpn);
  return true;
}

void CongestionManager::ScheduleHead(std::uint32_t qpn) {
  const HeldPacket& head = flows_[qpn - 1].held.front();
  device_->simulation().ScheduleReserved(head.when, head.seq,
                                         [this, qpn] { SendHead(qpn); });
}

void CongestionManager::SendHead(std::uint32_t qpn) {
  FixedDeque<HeldPacket>& held = flows_[qpn - 1].held;
  net::Packet packet = std::move(held.front().packet);
  held.pop_front();
  // The next head's key is later than the running one: same or later
  // time, larger seq.
  if (!held.empty()) ScheduleHead(qpn);
  device_->nic().Send(std::move(packet));
}

void CongestionManager::OnCnpReceived(std::uint32_t qpn) {
  Flow& flow = FlowFor(qpn);
  ++cnps_received_;
  ++rate_decreases_;
  // DCQCN reaction point: raise alpha, cut the rate, remember the pre-cut
  // rate as the recovery target.
  flow.alpha = (1.0 - kAlphaGain) * flow.alpha + kAlphaGain;
  flow.target_gbps = flow.rate_gbps;
  flow.rate_gbps = std::max(config_.min_rate_gbps,
                            flow.rate_gbps * (1.0 - flow.alpha / 2.0));
  flow.recovery_stage = 0;
  if (!flow.paced) {
    // Never back: packets still held from an earlier spell keep their
    // slots ahead of the ones this spell paces.
    flow.paced = true;
    flow.next_free = std::max(flow.next_free, device_->simulation().Now());
  }
  flow.alpha_timer.ArmAfter(device_->simulation(), kAlphaTimer,
                            [this, qpn] { DecayAlpha(qpn); });
  flow.recovery_timer.ArmAfter(device_->simulation(), kRecoveryTimer,
                               [this, qpn] { RecoverRate(qpn); });
}

void CongestionManager::DecayAlpha(std::uint32_t qpn) {
  Flow& flow = flows_[qpn - 1];
  if (!flow.paced) return;
  flow.alpha *= 1.0 - kAlphaGain;
  flow.alpha_timer.ArmAfter(device_->simulation(), kAlphaTimer,
                            [this, qpn] { DecayAlpha(qpn); });
}

void CongestionManager::RecoverRate(std::uint32_t qpn) {
  Flow& flow = flows_[qpn - 1];
  if (!flow.paced) return;
  // The DCQCN increase ladder: fast recovery halves the gap to the pre-cut
  // target, then the target itself climbs additively, then hyperactively.
  if (flow.recovery_stage >= kFastRecoveryStages) {
    const bool hyper = flow.recovery_stage >= 2 * kFastRecoveryStages;
    flow.target_gbps = std::min(
        line_rate_gbps_,
        flow.target_gbps + (hyper ? kRateHaiGbps : config_.rate_ai_gbps));
  }
  flow.rate_gbps = (flow.rate_gbps + flow.target_gbps) / 2.0;
  ++flow.recovery_stage;
  if (flow.rate_gbps >= line_rate_gbps_ * 0.999) {
    StopPacing(qpn);
    return;
  }
  flow.recovery_timer.ArmAfter(device_->simulation(), kRecoveryTimer,
                               [this, qpn] { RecoverRate(qpn); });
}

void CongestionManager::StopPacing(std::uint32_t qpn) {
  Flow& flow = flows_[qpn - 1];
  flow.rate_gbps = line_rate_gbps_;
  flow.target_gbps = line_rate_gbps_;
  flow.alpha = 1.0;
  flow.paced = false;
  flow.recovery_stage = 0;
  flow.alpha_timer.Cancel();
  flow.recovery_timer.Cancel();
}

void CongestionManager::NoteCeMark(const QueuePair& qp) {
  Flow& flow = FlowFor(qp.qpn());
  const Nanos now = device_->simulation().Now();
  if (flow.last_cnp_out >= 0 &&
      now - flow.last_cnp_out < config_.cnp_interval) {
    return;
  }
  flow.last_cnp_out = now;
  ++cnps_sent_;
  Bth bth;
  bth.opcode = Opcode::kCnp;
  bth.dest_qp = qp.remote_qpn();  // the QP at the flow's *source*
  bth.psn = 0;
  net::Packet packet =
      BuildRdmaPacket(device_->node_id(), qp.remote_node(),
                      net::Priority::kControl, bth, nullptr, nullptr, {});
  device_->EmitPacket(std::move(packet));
}

double CongestionManager::FlowRateGbps(std::uint32_t qpn) const {
  if (qpn == 0 || qpn > flows_.size()) return line_rate_gbps_;
  return flows_[qpn - 1].rate_gbps;
}

void CongestionManager::BindFlowGauge(std::uint32_t qpn) {
  telemetry::Labels labels = telemetry_labels_;
  labels.emplace_back("qp", std::to_string(qpn));
  // Captured by index, not pointer: flows_ may reallocate as QPs appear.
  gauges_.Register(
      *telemetry_registry_, "dcqcn_rate_gbps", labels, [this, qpn] {
        return static_cast<std::int64_t>(FlowRateGbps(qpn) *
                                         1000.0);  // milli-Gbps
      });
}

void CongestionManager::BindTelemetry(telemetry::MetricRegistry& registry,
                                      const telemetry::Labels& labels) {
  gauges_.Clear();
  telemetry_registry_ = &registry;
  telemetry_labels_ = labels;
  gauges_.Register(registry, "dcqcn_cnps_sent", labels, [this] {
    return static_cast<std::int64_t>(cnps_sent_);
  });
  gauges_.Register(registry, "dcqcn_cnps_received", labels, [this] {
    return static_cast<std::int64_t>(cnps_received_);
  });
  gauges_.Register(registry, "dcqcn_rate_decreases", labels, [this] {
    return static_cast<std::int64_t>(rate_decreases_);
  });
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    BindFlowGauge(static_cast<std::uint32_t>(i + 1));
  }
}

}  // namespace cowbird::rdma
