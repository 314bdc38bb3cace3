// Cluster pool allocator: one elastic memory pool spanning many servers.
//
// Section 3: pool memory "can be reserved or harvested from fragmented
// resources [47] but should be registered with the compute node client
// library". MIND-style, the pool is a set of memory servers, each
// contributing one registered slab managed by an ExtentAllocator; a *region*
// is a contiguous virtual interval carved into one or more ranges with
// per-range server ownership. The pool owns the authoritative
// TranslationTable — the same entries the P4 pipeline installs as a range
// match stage and the spot agent mirrors per instance (translation.h).
//
// Elasticity:
//   * grow    — AddServer registers a new slab; subsequent allocations and
//               spills can land on it.
//   * spill   — AllocateRegion carves from the preferred server first and
//               splits the region across the remaining servers, in 4 KiB
//               chunks, when the preferred slab is exhausted.
//   * rebalance — PlanMove/CommitMove relocate one range between servers.
//               The plan carries both placements; RegionMigrator
//               (migration.h) copies the bytes, and CommitMove is the
//               atomic virtual-time flip of the translation entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "core/instance.h"
#include "core/translation.h"
#include "rdma/device.h"
#include "telemetry/metrics.h"

namespace cowbird::core {

// First-fit extent allocator over [base, base+capacity). Pure bookkeeping:
// no device, no MR — the callers own what the addresses mean.
class ExtentAllocator {
 public:
  struct Extent {
    std::uint64_t start;
    Bytes length;
  };

  ExtentAllocator(std::uint64_t base, Bytes capacity)
      : base_(base), capacity_(capacity) {
    free_.push_back(Extent{base, capacity});
  }

  // Carves `size` bytes (rounded up to `align`); nullopt when no free
  // extent fits the whole request contiguously.
  std::optional<std::uint64_t> Allocate(Bytes size, Bytes align = 64) {
    COWBIRD_CHECK(size > 0 && align > 0);
    const Bytes aligned = AlignUp(size, align);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->length < aligned) continue;
      const std::uint64_t start = it->start;
      it->start += aligned;
      it->length -= aligned;
      if (it->length == 0) free_.erase(it);
      allocated_ += aligned;
      return start;
    }
    return std::nullopt;
  }

  // Carves the largest available extent up to `size` bytes, in multiples of
  // `align` — the spill path when a region is split across servers. Returns
  // nullopt when not even one aligned unit is free contiguously.
  std::optional<Extent> AllocateAtMost(Bytes size, Bytes align) {
    COWBIRD_CHECK(size > 0 && align > 0);
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->length < align) continue;
      if (best == free_.end() || it->length > best->length) best = it;
    }
    if (best == free_.end()) return std::nullopt;
    const Bytes take =
        std::min(AlignUp(size, align), best->length / align * align);
    Extent out{best->start, take};
    best->start += take;
    best->length -= take;
    if (best->length == 0) free_.erase(best);
    allocated_ += take;
    return out;
  }

  // Returns an extent to the free list, coalescing with its neighbours.
  void Release(std::uint64_t start, Bytes length) {
    COWBIRD_CHECK(start >= base_ && start + length <= base_ + capacity_);
    COWBIRD_CHECK(allocated_ >= length);
    allocated_ -= length;
    Extent freed{start, length};
    auto it = free_.begin();
    while (it != free_.end() && it->start < freed.start) ++it;
    // Coalesce with the previous extent.
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      COWBIRD_CHECK(prev->start + prev->length <= freed.start);
      if (prev->start + prev->length == freed.start) {
        prev->length += freed.length;
        // And possibly with the next one too.
        if (it != free_.end() && prev->start + prev->length == it->start) {
          prev->length += it->length;
          free_.erase(it);
        }
        return;
      }
    }
    // Coalesce with the next extent.
    if (it != free_.end()) {
      COWBIRD_CHECK(freed.start + freed.length <= it->start);
      if (freed.start + freed.length == it->start) {
        it->start = freed.start;
        it->length += freed.length;
        return;
      }
    }
    free_.insert(it, freed);
  }

  Bytes capacity() const { return capacity_; }
  Bytes allocated() const { return allocated_; }
  std::size_t fragments() const { return free_.size(); }

  static Bytes AlignUp(Bytes size, Bytes align) {
    return (size + align - 1) / align * align;
  }

 private:
  std::uint64_t base_;
  Bytes capacity_;
  std::list<Extent> free_;  // sorted by start address
  Bytes allocated_ = 0;
};

class ClusterPool {
 public:
  // Virtual ranges split on 4 KiB boundaries so sub-page records never
  // straddle an ownership boundary.
  static constexpr Bytes kRangeAlign = 4096;

  struct ServerStats {
    net::NodeId node = 0;
    Bytes capacity = 0;
    Bytes allocated = 0;
    std::size_t ranges = 0;  // live ranges owned by this server
    std::uint32_t rkey = 0;
  };

  // One planned range move: everything the copy engine and the cutover
  // need, resolved up front so the flip itself is a single Retarget.
  struct MigrationPlan {
    std::uint16_t region_id = 0;
    std::uint64_t vbase = 0;
    Bytes length = 0;
    net::NodeId src_node = 0;
    std::uint32_t src_rkey = 0;
    std::uint64_t src_addr = 0;
    net::NodeId dst_node = 0;
    std::uint32_t dst_rkey = 0;
    std::uint64_t dst_addr = 0;
  };

  // Grow: registers `capacity` bytes at `base` on `device` as one slab MR.
  void AddServer(rdma::Device& device, std::uint64_t base, Bytes capacity);

  std::vector<ServerStats> servers() const;

  // Carves `size` virtual bytes rooted at `vbase`. Prefers `preferred`
  // (0 = first server added) and spills across the remaining servers in
  // kRangeAlign chunks when it runs out; nullopt when the whole cluster
  // cannot hold the region (nothing is leaked on failure). The returned
  // RegionInfo describes the virtual region (remote_base = vbase); callers
  // publish RangesFor() alongside it so engines translate per range.
  std::optional<RegionInfo> AllocateRegion(std::uint16_t region_id,
                                           std::uint64_t vbase, Bytes size,
                                           net::NodeId preferred = 0);

  // Rebalance, step 1: reserve a destination extent on `to` for the range
  // identified by (region_id, vbase). The translation still points at the
  // source; nothing is live on the destination yet.
  std::optional<MigrationPlan> PlanMove(std::uint16_t region_id,
                                        std::uint64_t vbase, net::NodeId to);

  // Rebalance, step 2 (the cutover): atomically retarget the translation
  // entry at the destination and free the source extent. Every lookup
  // strictly after this call resolves to the destination.
  void CommitMove(const MigrationPlan& plan);

  const TranslationTable& table() const { return table_; }
  std::vector<RangeEntry> RangesFor(std::uint16_t region_id) const {
    return table_.RangesFor(region_id);
  }

  // Per-server occupancy as callback gauges, removed when the pool dies:
  //   pool_server_capacity_bytes{server=N}, pool_server_allocated_bytes{...},
  //   pool_server_ranges{...}. A second bind replaces the first.
  void BindTelemetry(telemetry::MetricRegistry& registry,
                     const telemetry::Labels& labels);

 private:
  struct Server {
    net::NodeId node = 0;
    std::uint32_t rkey = 0;
    ExtentAllocator arena;
  };

  Server* FindServer(net::NodeId node);
  const Server* FindServer(net::NodeId node) const;
  std::size_t RangesOn(net::NodeId node) const;

  std::vector<Server> servers_;  // in AddServer order
  TranslationTable table_;
  telemetry::CallbackGauges gauges_;
};

}  // namespace cowbird::core
