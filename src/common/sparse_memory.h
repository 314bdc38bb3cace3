// Byte-addressable memory for simulated nodes.
//
// Node address spaces in the simulation can be large (a memory pool is tens
// of GiB in the paper), but benchmarks only touch a fraction. Registered
// ranges (MRs, staging arenas, app heaps) are Map()ped: each becomes one
// flat, demand-zero extent, so a span inside it is a single memcpy and the
// OS materializes only the pages a run writes. Everything else is sparse:
// 4 KiB pages materialize in a hash on first write. Either way, reads of
// never-written memory return zeros, like fresh anonymous mappings.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace cowbird {

class SparseMemory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  SparseMemory() = default;
  ~SparseMemory();
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;
  SparseMemory(SparseMemory&& other) noexcept;
  SparseMemory& operator=(SparseMemory&& other) noexcept;

  void Write(std::uint64_t addr, std::span<const std::uint8_t> data);
  void Read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  // Backs [addr, addr+len), rounded out to whole pages, with one flat
  // demand-zero extent: the simulator's ibv_reg_mr. Contents are unchanged —
  // pages already written in the range move into the extent, and the rest
  // reads as zeros without taking any memory until written. A range that
  // overlaps an existing extent maps nothing new: inside one it is already
  // flat, and the rest of a partial overlap stays on the page path.
  void Map(std::uint64_t addr, Bytes len);

  // Typed helpers for the fixed-width fields the protocol moves around.
  template <typename T>
  void WriteValue(std::uint64_t addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    Write(addr, std::span<const std::uint8_t>(raw, sizeof(T)));
  }

  template <typename T>
  T ReadValue(std::uint64_t addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    Read(addr, std::span<std::uint8_t>(raw, sizeof(T)));
    T value;
    std::memcpy(&value, raw, sizeof(T));
    return value;
  }

  // Pages materialized in the hash, i.e. written outside every extent.
  std::size_t ResidentPages() const { return pages_.size(); }

 private:
  using Page = std::unique_ptr<std::uint8_t[]>;

  // One mapped range: page-aligned, a whole number of pages.
  struct Extent {
    std::uint64_t base = 0;
    std::uint64_t len = 0;
    std::uint8_t* data = nullptr;
  };

  // The extent holding all of [addr, addr+len), or null. A plain scan: no
  // host in the perfbench workloads maps more than two extents.
  const Extent* FindExtent(std::uint64_t addr, std::uint64_t len) const;
  // The page's bytes, whether in an extent or the hash; null if unwritten
  // and unmapped. EnsurePage materializes a hash page instead of null.
  std::uint8_t* FindPage(std::uint64_t page_index) const;
  std::uint8_t* EnsurePage(std::uint64_t page_index);
  void UnmapAll();

  std::vector<Extent> extents_;
  std::unordered_map<std::uint64_t, Page> pages_;
  // Direct-mapped cache over page lookups, for spans outside every extent
  // (or crossing an extent's edge): mostly FASTER's unregistered log and
  // local device. It serves 93–99% of the page lookups in fig09_faster_ycsb,
  // fig10_comm_ratio, fig11_redy and kv_spill; without it fig09/10/11 ran
  // 1.5%/7%/3% slower (median wall time on a shared 4-vCPU host, slower in
  // 6 of 8 alternating pairs each). The perfbench workloads, sim_throughput
  // and fig12_aifm never reach it: all their traffic is registered.
  // Pages and extents are never unmapped while the memory lives, so a
  // cached pointer only goes stale through Map (pages move into the
  // extent) or move — both clear the cache.
  struct CachedPage {
    std::uint64_t index = ~std::uint64_t{0};
    std::uint8_t* page = nullptr;
  };
  static constexpr std::size_t kCacheWays = 32;
  mutable std::array<CachedPage, kCacheWays> cache_{};
};

}  // namespace cowbird
