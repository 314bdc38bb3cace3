// RNIC device model: protection domain, memory regions, completion queues,
// and packet demultiplexing to queue pairs.
//
// A Device is the per-host RDMA endpoint. It owns the MR table (rkey
// validation happens here, as it would in NIC hardware), hands out QPs and
// CQs, and moves packets between QPs and the host's NIC with the configured
// per-packet processing latency. Nothing in this file charges application
// CPU time — that is the whole point of one-sided RDMA; the *verbs* wrappers
// (verbs.h) are where the compute node pays.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/pool.h"
#include "common/sparse_memory.h"
#include "common/units.h"
#include "net/switch.h"
#include "rdma/params.h"
#include "rdma/wire.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace cowbird::rdma {

class CongestionManager;
class QueuePair;

struct MemoryRegion {
  std::uint64_t base = 0;
  Bytes length = 0;
  std::uint32_t rkey = 0;

  bool Contains(std::uint64_t vaddr, std::uint64_t len) const {
    return vaddr >= base && vaddr + len <= base + length && len <= length;
  }
};

enum class CqeStatus : std::uint8_t { kSuccess, kRemoteAccessError };
enum class CqeOpcode : std::uint8_t { kRead, kWrite, kSend, kRecv };

struct Cqe {
  std::uint64_t wr_id = 0;
  CqeOpcode opcode = CqeOpcode::kRead;
  CqeStatus status = CqeStatus::kSuccess;
  std::uint32_t byte_len = 0;
};

class CompletionQueue {
 public:
  void Push(const Cqe& cqe) {
    entries_.push_back(cqe);
    if (on_completion_) on_completion_();
  }
  std::optional<Cqe> Pop() {
    if (entries_.empty()) return std::nullopt;
    Cqe cqe = entries_.front();
    entries_.pop_front();
    return cqe;
  }
  std::size_t Size() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }

  // Event hook for event-driven consumers (the Cowbird-Spot agent). Fires
  // after each push; the consumer drains with Pop().
  void SetCompletionCallback(std::function<void()> cb) {
    on_completion_ = std::move(cb);
  }

 private:
  FixedDeque<Cqe> entries_;
  std::function<void()> on_completion_;
};

class Device {
 public:
  Device(net::HostNic& nic, SparseMemory& memory, NicConfig config);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  // Registers [base, base+length) and maps it flat in the host's memory,
  // the way ibv_reg_mr pins an MR: no access to it allocates a page later.
  const MemoryRegion* RegisterMemory(std::uint64_t base, Bytes length);
  const MemoryRegion* LookupRkey(std::uint32_t rkey) const;

  CompletionQueue* CreateCq();
  QueuePair* CreateQp(CompletionQueue* send_cq, CompletionQueue* recv_cq);
  QueuePair* FindQp(std::uint32_t qpn) const;

  // Hands a fully-built packet to the NIC after the TX processing delay.
  void EmitPacket(net::Packet packet);

  // Data-path emit for QP `qpn`: when DCQCN is enabled the packet is
  // stamped ECT and may be held by the flow's leaky bucket before the
  // processing delay. Unpaced flows (never marked, or fully recovered)
  // take the exact EmitPacket path, byte- and timestamp-identical to a
  // congestion-disabled run.
  void EmitPaced(std::uint32_t qpn, net::Packet packet);

  SparseMemory& memory() { return *memory_; }
  net::HostNic& nic() { return *nic_; }
  sim::Simulation& simulation() { return nic_->simulation(); }
  const NicConfig& config() const { return config_; }
  net::NodeId node_id() const { return nic_->id(); }

  // Null unless config.dcqcn.enabled.
  CongestionManager* congestion() { return congestion_.get(); }

  // Write watch for live region migration (core::RegionMigrator): `cb`
  // fires for every RDMA WRITE payload chunk a responder lands inside
  // [base, base+length) on this device — the dirty-tracking hook a real
  // NIC would implement with ODP/dirty-bit scanning. One watch per device;
  // re-arming replaces the previous one.
  void SetWriteWatch(std::uint64_t base, Bytes length,
                     std::function<void(std::uint64_t, std::uint32_t)> cb) {
    watch_base_ = base;
    watch_length_ = length;
    write_watch_ = std::move(cb);
  }
  void ClearWriteWatch() {
    write_watch_ = nullptr;
    watch_length_ = 0;
  }
  // Called by QueuePair on every landed WRITE chunk; no cost when unarmed.
  void NotifyWrite(std::uint64_t addr, std::uint32_t len) {
    if (write_watch_ && addr < watch_base_ + watch_length_ &&
        addr + len > watch_base_) {
      write_watch_(addr, len);
    }
  }

  // Sum of Go-Back-N retransmissions across every QP on this device.
  std::uint64_t total_retransmissions() const;
  // Packets to the RoCE port too short for the headers they name, dropped.
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }

  // Surfaces packet and retransmission counters as callback gauges. The
  // device must outlive the registry or UnbindTelemetry first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);
  void UnbindTelemetry();

 private:
  void OnPacket(net::Packet packet);

  net::HostNic* nic_;
  SparseMemory* memory_;
  NicConfig config_;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::unique_ptr<CongestionManager> congestion_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t malformed_dropped_ = 0;
  std::uint64_t watch_base_ = 0;
  Bytes watch_length_ = 0;  // 0 = watch unarmed
  std::function<void(std::uint64_t, std::uint32_t)> write_watch_;
  telemetry::MetricRegistry* telemetry_registry_ = nullptr;
  telemetry::Labels telemetry_labels_;
};

}  // namespace cowbird::rdma
