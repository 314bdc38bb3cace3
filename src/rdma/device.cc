#include "rdma/device.h"

#include <utility>

#include "rdma/congestion.h"
#include "rdma/qp.h"

namespace cowbird::rdma {

namespace {
// rkeys are sparse, non-sequential tokens (a real NIC hands out opaque
// values); a fixed multiplicative hash over the registration index keeps
// them deterministic across runs.
std::uint32_t MakeRkey(std::size_t index) {
  return static_cast<std::uint32_t>((index + 1) * 2654435761u) | 1u;
}

// Doorbell-to-wire (TX) / wire-to-DMA-complete (RX) latency per packet.
constexpr Nanos kProcessingDelay = 250;
}  // namespace

Device::Device(net::HostNic& nic, SparseMemory& memory, NicConfig config)
    : nic_(&nic), memory_(&memory), config_(config) {
  nic_->SetPortReceiver(net::kRoceUdpPort,
                        [this](net::Packet p) { OnPacket(std::move(p)); });
  if (config_.dcqcn.enabled) {
    congestion_ = std::make_unique<CongestionManager>(
        *this, config_.dcqcn, nic_->uplink().rate().GbpsValue());
  }
}

Device::~Device() = default;

const MemoryRegion* Device::RegisterMemory(std::uint64_t base, Bytes length) {
  COWBIRD_CHECK(SparseMemory::Contains(base, length));
  auto region = std::make_unique<MemoryRegion>();
  region->base = base;
  region->length = length;
  region->rkey = MakeRkey(regions_.size());
  regions_.push_back(std::move(region));
  return regions_.back().get();
}

const MemoryRegion* Device::LookupRkey(std::uint32_t rkey) const {
  for (const auto& region : regions_) {
    if (region->rkey == rkey) return region.get();
  }
  return nullptr;
}

CompletionQueue* Device::CreateCq() {
  cqs_.push_back(std::make_unique<CompletionQueue>());
  return cqs_.back().get();
}

QueuePair* Device::CreateQp(CompletionQueue* send_cq,
                            CompletionQueue* recv_cq) {
  const auto qpn = static_cast<std::uint32_t>(qps_.size() + 1);
  qps_.push_back(std::make_unique<QueuePair>(*this, qpn, send_cq, recv_cq));
  return qps_.back().get();
}

QueuePair* Device::FindQp(std::uint32_t qpn) const {
  if (qpn == 0 || qpn > qps_.size()) return nullptr;
  return qps_[qpn - 1].get();
}

void Device::EmitPacket(net::Packet packet) {
  ++packets_sent_;
  simulation().ScheduleAfter(kProcessingDelay,
                             [this, p = std::move(packet)]() mutable {
                               nic_->Send(std::move(p));
                             });
}

void Device::EmitPaced(std::uint32_t qpn, net::Packet packet) {
  if (congestion_ != nullptr) {
    packet.SetEcnBits(net::kEcnEct0);
    const Nanos delay = congestion_->ReserveSend(qpn, packet.WireBytes());
    if (delay > 0) {
      ++packets_sent_;
      QueuePaced(qpn, simulation().Now() + delay + kProcessingDelay,
                 std::move(packet));
      return;
    }
  }
  EmitPacket(std::move(packet));
}

void Device::QueuePaced(std::uint32_t qpn, Nanos when, net::Packet packet) {
  sim::Simulation& sim = simulation();
  const std::uint64_t seq = sim.Reserve();
  if (paced_.size() < qpn) paced_.resize(qpn);
  FixedDeque<PacedPacket>& flow = paced_[qpn - 1];
  // The leaky bucket hands a flow rising departure times, so a packet
  // queues behind the ones waiting and leaves at its own key once they
  // have gone. A flow re-paced after StopPacing restarts its bucket at
  // now, possibly before packets still waiting from its previous pacing
  // spell: such a packet gets an event of its own.
  if (!flow.empty() && when < flow.back().when) {
    sim.ScheduleReserved(when, seq, [this, p = std::move(packet)]() mutable {
      nic_->Send(std::move(p));
    });
    return;
  }
  flow.push_back(PacedPacket{when, seq, std::move(packet)});
  if (flow.size() == 1) {
    sim.ScheduleReserved(when, seq, [this, qpn] { SendPacedHead(qpn); });
  }
}

void Device::SendPacedHead(std::uint32_t qpn) {
  FixedDeque<PacedPacket>& flow = paced_[qpn - 1];
  net::Packet packet = std::move(flow.front().packet);
  flow.pop_front();
  if (!flow.empty()) {
    // Later than the running key: same or later time, larger seq.
    simulation().ScheduleReserved(flow.front().when, flow.front().seq,
                                  [this, qpn] { SendPacedHead(qpn); });
  }
  nic_->Send(std::move(packet));
}

void Device::OnPacket(net::Packet packet) {
  ++packets_received_;
  simulation().ScheduleAfter(
      kProcessingDelay, [this, p = std::move(packet)]() mutable {
        const std::optional<RdmaMessageView> parsed = ParseRdmaPacket(p);
        if (!parsed) {
          ++malformed_dropped_;
          return;
        }
        const RdmaMessageView& view = *parsed;
        if (view.bth.opcode == Opcode::kCnp) {
          // A CNP names the local QP whose flow must slow down; it never
          // reaches the QP state machines.
          if (congestion_ != nullptr) {
            congestion_->OnCnpReceived(view.bth.dest_qp);
          }
          return;
        }
        QueuePair* qp = FindQp(view.bth.dest_qp);
        if (qp == nullptr || !qp->Connected()) return;  // stale packet
        if (congestion_ != nullptr && CarriesPayload(view.bth.opcode) &&
            p.EcnBits() == net::kEcnCe) {
          congestion_->NoteCeMark(*qp);
        }
        qp->HandlePacket(p, view);
      });
}

std::uint64_t Device::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_) total += qp->retransmissions();
  return total;
}

void Device::BindTelemetry(telemetry::MetricRegistry& registry,
                           const telemetry::Labels& labels) {
  UnbindTelemetry();
  telemetry_registry_ = &registry;
  telemetry_labels_ = labels;
  registry.RegisterCallbackGauge("nic_packets_sent", labels, [this] {
    return static_cast<std::int64_t>(packets_sent_);
  });
  registry.RegisterCallbackGauge("nic_packets_received", labels, [this] {
    return static_cast<std::int64_t>(packets_received_);
  });
  registry.RegisterCallbackGauge("qp_retransmissions", labels, [this] {
    return static_cast<std::int64_t>(total_retransmissions());
  });
  if (congestion_ != nullptr) congestion_->BindTelemetry(registry, labels);
}

void Device::UnbindTelemetry() {
  if (telemetry_registry_ == nullptr) return;
  for (const char* name :
       {"nic_packets_sent", "nic_packets_received", "qp_retransmissions"}) {
    telemetry_registry_->UnregisterCallbackGauge(name, telemetry_labels_);
  }
  if (congestion_ != nullptr) congestion_->UnbindTelemetry();
  telemetry_registry_ = nullptr;
  telemetry_labels_.clear();
}

}  // namespace cowbird::rdma
