// Byte-addressable memory for simulated nodes.
//
// Node address spaces in the simulation can be large (a memory pool is tens
// of GiB in the paper), but benchmarks only touch a fraction. SparseMemory
// materializes 4 KiB pages on first write; reads of never-written memory
// return zeros, like fresh anonymous mappings.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "common/units.h"

namespace cowbird {

class SparseMemory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  SparseMemory() = default;
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;
  SparseMemory(SparseMemory&& other) noexcept : pages_(std::move(other.pages_)) {
    other.cache_ = {};
  }
  SparseMemory& operator=(SparseMemory&& other) noexcept {
    pages_ = std::move(other.pages_);
    cache_ = {};
    other.cache_ = {};
    return *this;
  }

  void Write(std::uint64_t addr, std::span<const std::uint8_t> data);
  void Read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  // Materialize every page of [addr, addr+len) up front, the way an RDMA
  // stack pins a registered MR at ibv_reg_mr time. Contents are unchanged
  // (fresh pages read as zeros either way); this only moves the page
  // allocations out of the datapath and into setup.
  void PreFault(std::uint64_t addr, Bytes len);

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

  std::size_t ResidentPages() const { return pages_.size(); }

 private:
  using Page = std::unique_ptr<std::uint8_t[]>;

  std::uint8_t* EnsurePage(std::uint64_t page_index);
  const std::uint8_t* FindPage(std::uint64_t page_index) const;

  std::unordered_map<std::uint64_t, Page> pages_;
  // Direct-mapped cache over the page table. The datapath hammers a handful
  // of ring/staging pages per op, and the hash lookup was ~15% of simulator
  // wall time. Pages are never unmapped, so a cached pointer can only go
  // stale through move (handled above) — never through eviction.
  struct CachedPage {
    std::uint64_t index = ~std::uint64_t{0};
    std::uint8_t* page = nullptr;
  };
  static constexpr std::size_t kCacheWays = 32;
  mutable std::array<CachedPage, kCacheWays> cache_{};
};

}  // namespace cowbird
