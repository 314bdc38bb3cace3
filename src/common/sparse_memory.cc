#include "common/sparse_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <utility>

namespace cowbird {

SparseMemory::~SparseMemory() { UnmapAll(); }

SparseMemory::SparseMemory(SparseMemory&& other) noexcept
    : extents_(std::exchange(other.extents_, {})),
      pages_(std::move(other.pages_)) {
  other.cache_ = {};
}

SparseMemory& SparseMemory::operator=(SparseMemory&& other) noexcept {
  if (this != &other) {
    UnmapAll();
    extents_ = std::exchange(other.extents_, {});
    pages_ = std::move(other.pages_);
    cache_ = {};
    other.cache_ = {};
  }
  return *this;
}

void SparseMemory::UnmapAll() {
  for (const Extent& e : extents_) munmap(e.data, e.len);
  extents_.clear();
}

void SparseMemory::Map(std::uint64_t addr, Bytes len) {
  if (len == 0) return;
  const std::uint64_t base = addr / kPageSize * kPageSize;
  const std::uint64_t end =
      (addr + len + kPageSize - 1) / kPageSize * kPageSize;
  // Already flat, or overlapping an extent without lying inside it (two
  // byte-disjoint MRs can share a boundary page): the rest of such a range
  // stays on the page path, whose lookup finds the extent's bytes first.
  for (const Extent& e : extents_) {
    if (end > e.base && base < e.base + e.len) return;
  }
  void* raw = mmap(nullptr, end - base, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  COWBIRD_CHECK(raw != MAP_FAILED);
  // Keep RSS in 4 KiB pages whatever the host's transparent-huge-page mode
  // (a kernel without THP rejects the advice, which is just as good).
  (void)madvise(raw, end - base, MADV_NOHUGEPAGE);
  const Extent extent{base, end - base, static_cast<std::uint8_t*>(raw)};
  for (auto it = pages_.begin(); it != pages_.end();) {
    const std::uint64_t page_addr = it->first * kPageSize;
    if (page_addr >= base && page_addr < end) {
      std::memcpy(extent.data + (page_addr - base), it->second.get(),
                  kPageSize);
      it = pages_.erase(it);
    } else {
      ++it;
    }
  }
  cache_ = {};
  extents_.push_back(extent);
}

const SparseMemory::Extent* SparseMemory::FindExtent(std::uint64_t addr,
                                                     std::uint64_t len) const {
  for (const Extent& e : extents_) {
    if (addr >= e.base && len <= e.len && addr - e.base <= e.len - len) {
      return &e;
    }
  }
  return nullptr;
}

std::uint8_t* SparseMemory::FindPage(std::uint64_t page_index) const {
  CachedPage& slot = cache_[page_index % kCacheWays];
  if (slot.index == page_index) return slot.page;
  const std::uint64_t page_addr = page_index * kPageSize;
  std::uint8_t* page = nullptr;
  if (const Extent* e = FindExtent(page_addr, kPageSize)) {
    page = e->data + (page_addr - e->base);
  } else if (auto it = pages_.find(page_index); it != pages_.end()) {
    page = it->second.get();
  } else {
    return nullptr;  // not cached: stays a miss until written
  }
  slot = CachedPage{page_index, page};
  return page;
}

std::uint8_t* SparseMemory::EnsurePage(std::uint64_t page_index) {
  if (std::uint8_t* page = FindPage(page_index)) return page;
  auto fresh = std::make_unique<std::uint8_t[]>(kPageSize);
  std::memset(fresh.get(), 0, kPageSize);
  std::uint8_t* page = fresh.get();
  pages_.emplace(page_index, std::move(fresh));
  cache_[page_index % kCacheWays] = CachedPage{page_index, page};
  return page;
}

void SparseMemory::Write(std::uint64_t addr,
                         std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  if (const Extent* e = FindExtent(addr, data.size())) {
    std::memcpy(e->data + (addr - e->base), data.data(), data.size());
    return;
  }
  std::uint64_t pos = addr;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t page_index = pos / kPageSize;
    const std::uint64_t in_page = pos % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - in_page, data.size() - done));
    std::memcpy(EnsurePage(page_index) + in_page, data.data() + done, chunk);
    pos += chunk;
    done += chunk;
  }
}

void SparseMemory::Read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  if (out.empty()) return;
  if (const Extent* e = FindExtent(addr, out.size())) {
    std::memcpy(out.data(), e->data + (addr - e->base), out.size());
    return;
  }
  std::uint64_t pos = addr;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t page_index = pos / kPageSize;
    const std::uint64_t in_page = pos % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - in_page, out.size() - done));
    if (const std::uint8_t* page = FindPage(page_index)) {
      std::memcpy(out.data() + done, page + in_page, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    pos += chunk;
    done += chunk;
  }
}

}  // namespace cowbird
