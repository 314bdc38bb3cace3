// Byte-addressable memory for simulated nodes.
//
// Each simulated host has one flat address space of kAddressSpace bytes,
// reserved by a single demand-zero mapping: the OS materializes only the
// pages a run writes, so a memory pool of tens of GiB costs what a benchmark
// touches of it. Registering memory (rdma::Device::RegisterMemory) only
// grants rkey access to a range of this space, as ibv_reg_mr does. Reads of
// never-written memory return zeros, like fresh anonymous mappings, and so
// do reads past the space; a write past it is a simulator bug and
// CHECK-fails.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/units.h"

namespace cowbird {

class SparseMemory {
 public:
  // Every simulated address in the repo lies below this bound (the highest,
  // the chaos runner's bystander staging, ends below 0xC100'0000).
  static constexpr std::uint64_t kAddressSpace = GiB(4);

  SparseMemory();
  ~SparseMemory();
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;

  // True when [addr, addr+len) lies inside the address space.
  static constexpr bool Contains(std::uint64_t addr, std::uint64_t len) {
    return len <= kAddressSpace && addr <= kAddressSpace - len;
  }

  void Write(std::uint64_t addr, std::span<const std::uint8_t> data);
  void Read(std::uint64_t addr, std::span<std::uint8_t> out) const;

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

 private:
  std::uint8_t* base_;
};

}  // namespace cowbird
