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
  if (congestion_ != nullptr && congestion_->Hold(qpn, packet)) {
    ++packets_sent_;
    return;
  }
  EmitPacket(std::move(packet));
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
          // reaches the QP state machines. One naming no local QP is
          // malformed: it must not grow the flow table or cut any rate.
          if (FindQp(view.bth.dest_qp) == nullptr) {
            ++malformed_dropped_;
          } else if (congestion_ != nullptr) {
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
  gauges_.Clear();
  gauges_.Register(registry, "nic_packets_sent", labels, [this] {
    return static_cast<std::int64_t>(packets_sent_);
  });
  gauges_.Register(registry, "nic_packets_received", labels, [this] {
    return static_cast<std::int64_t>(packets_received_);
  });
  gauges_.Register(registry, "qp_retransmissions", labels, [this] {
    return static_cast<std::int64_t>(total_retransmissions());
  });
  if (congestion_ != nullptr) congestion_->BindTelemetry(registry, labels);
}

}  // namespace cowbird::rdma
