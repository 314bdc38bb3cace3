#include "common/sparse_memory.h"

#include <sys/mman.h>

#include <algorithm>

#include "common/check.h"

namespace cowbird {

namespace {

std::uint8_t* MapSpace() {
  void* raw = mmap(nullptr, SparseMemory::kAddressSpace,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  COWBIRD_CHECK(raw != MAP_FAILED);
  // Keep RSS in 4 KiB pages whatever the host's transparent-huge-page mode
  // (a kernel without THP rejects the advice, which is just as good).
  (void)madvise(raw, SparseMemory::kAddressSpace, MADV_NOHUGEPAGE);
  return static_cast<std::uint8_t*>(raw);
}

}  // namespace

SparseMemory::SparseMemory() : base_(MapSpace()) {}

SparseMemory::~SparseMemory() { munmap(base_, kAddressSpace); }

void SparseMemory::Write(std::uint64_t addr,
                         std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  COWBIRD_CHECK(Contains(addr, data.size()));
  std::memcpy(base_ + addr, data.data(), data.size());
}

void SparseMemory::Read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  // Bytes past the space read as zeros, like never-written ones.
  const std::size_t inside =
      addr < kAddressSpace
          ? static_cast<std::size_t>(
                std::min<std::uint64_t>(out.size(), kAddressSpace - addr))
          : 0;
  if (inside > 0) std::memcpy(out.data(), base_ + addr, inside);
  if (inside < out.size()) {
    std::memset(out.data() + inside, 0, out.size() - inside);
  }
}

}  // namespace cowbird
