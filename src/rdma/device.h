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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
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

  // Overflow-safe: vaddr and len may come off the wire.
  bool Contains(std::uint64_t vaddr, std::uint64_t len) const {
    return vaddr >= base && len <= length && vaddr - base <= length - len;
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

  // Registers [base, base+length) of the host's address space (which it
  // must fit) for rkey access, as ibv_reg_mr does.
  const MemoryRegion* RegisterMemory(std::uint64_t base, Bytes length);
  const MemoryRegion* LookupRkey(std::uint32_t rkey) const;

  CompletionQueue* CreateCq();
  QueuePair* CreateQp(CompletionQueue* send_cq, CompletionQueue* recv_cq);
  QueuePair* FindQp(std::uint32_t qpn) const;

  // Doorbell-to-wire (TX) / wire-to-DMA-complete (RX) latency per packet.
  static constexpr Nanos kProcessingDelay = 250;

  // Hands a fully-built packet to the NIC after the TX processing delay.
  void EmitPacket(net::Packet packet);

  // Data-path emit for QP `qpn`: when DCQCN is enabled the packet is
  // stamped ECT and its flow may hold it (CongestionManager::Hold).
  // Unpaced flows that hold nothing (never marked, or fully recovered)
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

  // Write watches: a watch's callback fires for every RDMA WRITE payload
  // chunk a responder lands overlapping [base, base+length) on this device
  // — the hook a real NIC would implement with ODP/dirty-bit scanning. A
  // device holds any number (a live migration's dirty tracking, each
  // CowbirdClient's red-block wake-ups); they fire in the order they were
  // added. A callback must not add or remove watches.
  using WriteWatchFn = std::function<void(std::uint64_t, std::uint32_t)>;
  std::uint64_t AddWriteWatch(std::uint64_t base, Bytes length,
                              WriteWatchFn cb) {
    COWBIRD_CHECK(length > 0 && cb);
    write_watches_.push_back(
        WriteWatch{next_watch_id_, base, length, std::move(cb)});
    return next_watch_id_++;
  }
  void RemoveWriteWatch(std::uint64_t id) {
    const auto it = std::find_if(
        write_watches_.begin(), write_watches_.end(),
        [id](const WriteWatch& w) { return w.id == id; });
    COWBIRD_CHECK(it != write_watches_.end());
    write_watches_.erase(it);
  }
  // Called by QueuePair on every landed WRITE chunk.
  void NotifyWrite(std::uint64_t addr, std::uint32_t len) {
    for (const WriteWatch& w : write_watches_) {
      if (addr < w.base + w.length && addr + len > w.base) w.fn(addr, len);
    }
  }

  // Sum of Go-Back-N retransmissions across every QP on this device.
  std::uint64_t total_retransmissions() const;
  // Packets to the RoCE port dropped as malformed: too short for the
  // headers they name, or refused by a QP for an unknown request opcode or
  // a payload past the span validated for it.
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }
  void CountMalformed() { ++malformed_dropped_; }

  // Surfaces packet and retransmission counters (and the congestion
  // manager's) as callback gauges, removed when the device dies. A second
  // bind replaces the first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

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
  struct WriteWatch {
    std::uint64_t id;
    std::uint64_t base;
    Bytes length;
    WriteWatchFn fn;
  };
  std::vector<WriteWatch> write_watches_;
  std::uint64_t next_watch_id_ = 1;
  telemetry::CallbackGauges gauges_;
};

}  // namespace cowbird::rdma
