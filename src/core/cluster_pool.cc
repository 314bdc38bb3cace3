#include "core/cluster_pool.h"

#include <string>

#include "common/check.h"

namespace cowbird::core {

void ClusterPool::AddServer(rdma::Device& device, std::uint64_t base,
                            Bytes capacity) {
  COWBIRD_CHECK(capacity >= kRangeAlign);
  COWBIRD_CHECK(FindServer(device.node_id()) == nullptr);
  const rdma::MemoryRegion* mr = device.RegisterMemory(base, capacity);
  COWBIRD_CHECK(mr != nullptr);
  servers_.push_back(
      Server{device.node_id(), mr->rkey, ExtentAllocator(base, capacity)});
}

std::size_t ClusterPool::RangesOn(net::NodeId node) const {
  std::size_t n = 0;
  for (const RangeEntry& e : table_.entries()) n += e.node == node;
  return n;
}

ClusterPool::Server* ClusterPool::FindServer(net::NodeId node) {
  for (Server& s : servers_) {
    if (s.node == node) return &s;
  }
  return nullptr;
}

const ClusterPool::Server* ClusterPool::FindServer(net::NodeId node) const {
  for (const Server& s : servers_) {
    if (s.node == node) return &s;
  }
  return nullptr;
}

std::vector<ClusterPool::ServerStats> ClusterPool::servers() const {
  std::vector<ServerStats> out;
  out.reserve(servers_.size());
  for (const Server& s : servers_) {
    out.push_back(ServerStats{s.node, s.arena.capacity(),
                              s.arena.allocated(), RangesOn(s.node), s.rkey});
  }
  return out;
}

std::optional<RegionInfo> ClusterPool::AllocateRegion(std::uint16_t region_id,
                                                      std::uint64_t vbase,
                                                      Bytes size,
                                                      net::NodeId preferred) {
  COWBIRD_CHECK(size > 0);
  COWBIRD_CHECK(!servers_.empty());
  COWBIRD_CHECK(table_.RangesFor(region_id).empty());

  // Visit the preferred server first, then the rest in AddServer order.
  std::vector<std::size_t> order;
  std::size_t start = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (preferred != 0 && servers_[i].node == preferred) start = i;
  }
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    order.push_back((start + i) % servers_.size());
  }

  std::vector<RangeEntry> carved;
  Bytes remaining = ExtentAllocator::AlignUp(size, kRangeAlign);
  std::uint64_t cursor = vbase;
  for (const std::size_t idx : order) {
    Server& server = servers_[idx];
    while (remaining > 0) {
      const auto extent = server.arena.AllocateAtMost(remaining, kRangeAlign);
      if (!extent.has_value()) break;  // spill to the next server
      carved.push_back(RangeEntry{region_id, cursor, extent->length,
                                  server.node, server.rkey, extent->start});
      cursor += extent->length;
      remaining -= extent->length;
    }
    if (remaining == 0) break;
  }
  if (remaining > 0) {
    // Whole-cluster exhaustion: put everything back, leak nothing.
    for (const RangeEntry& e : carved) {
      FindServer(e.node)->arena.Release(e.server_base, e.length);
    }
    return std::nullopt;
  }
  for (const RangeEntry& e : carved) table_.Install(e);

  RegionInfo region;
  region.region_id = region_id;
  region.memory_node = carved.front().node;
  region.remote_base = vbase;
  region.rkey = carved.front().rkey;
  region.size = size;
  return region;
}

std::optional<ClusterPool::MigrationPlan> ClusterPool::PlanMove(
    std::uint16_t region_id, std::uint64_t vbase, net::NodeId to) {
  const RangeEntry* range = nullptr;
  for (const RangeEntry& e : table_.entries()) {
    if (e.region_id == region_id && e.vbase == vbase) range = &e;
  }
  if (range == nullptr || range->node == to) return std::nullopt;
  Server* dst = FindServer(to);
  if (dst == nullptr) return std::nullopt;
  const auto dst_addr = dst->arena.Allocate(range->length, kRangeAlign);
  if (!dst_addr.has_value()) return std::nullopt;

  MigrationPlan plan;
  plan.region_id = region_id;
  plan.vbase = vbase;
  plan.length = range->length;
  plan.src_node = range->node;
  plan.src_rkey = range->rkey;
  plan.src_addr = range->server_base;
  plan.dst_node = to;
  plan.dst_rkey = dst->rkey;
  plan.dst_addr = *dst_addr;
  return plan;
}

void ClusterPool::CommitMove(const MigrationPlan& plan) {
  COWBIRD_CHECK(table_.Retarget(plan.region_id, plan.vbase, plan.dst_node,
                                plan.dst_rkey, plan.dst_addr));
  Server* src = FindServer(plan.src_node);
  COWBIRD_CHECK(src != nullptr);
  src->arena.Release(plan.src_addr,
                     ExtentAllocator::AlignUp(plan.length, kRangeAlign));
}

void ClusterPool::BindTelemetry(telemetry::MetricRegistry& registry,
                                const telemetry::Labels& labels) {
  gauges_.Clear();
  for (const Server& server : servers_) {
    telemetry::Labels with_server = labels;
    with_server.emplace_back("server", std::to_string(server.node));
    const net::NodeId node = server.node;
    gauges_.Register(
        registry, "pool_server_capacity_bytes", with_server, [this, node] {
          return static_cast<std::int64_t>(FindServer(node)->arena.capacity());
        });
    gauges_.Register(
        registry, "pool_server_allocated_bytes", with_server, [this, node] {
          return static_cast<std::int64_t>(
              FindServer(node)->arena.allocated());
        });
    gauges_.Register(
        registry, "pool_server_ranges", with_server, [this, node] {
          return static_cast<std::int64_t>(RangesOn(node));
        });
  }
}

}  // namespace cowbird::core
