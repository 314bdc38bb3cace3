#include "faster/store.h"

#include "common/check.h"

namespace cowbird::faster {

FasterStore::FasterStore(SparseMemory& memory, Config config)
    : memory_(&memory), config_(config) {
  COWBIRD_CHECK((config_.index_buckets & (config_.index_buckets - 1)) == 0);
  COWBIRD_CHECK(config_.memory_budget % kSpillPage == 0);
  index_.resize(config_.index_buckets);
}

std::uint64_t FasterStore::HashKey(std::uint64_t key) {
  // 64-bit finalizer (splittable-mix); cheap and well distributed.
  std::uint64_t h = key + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::uint64_t FasterStore::IndexSlot(std::uint64_t key) const {
  const std::uint64_t mask = config_.index_buckets - 1;
  std::uint64_t slot = HashKey(key) & mask;
  for (;;) {
    const IndexEntry& entry = index_[slot];
    if (entry.address == kInvalidAddress || entry.key == key) return slot;
    slot = (slot + 1) & mask;
  }
}

sim::Task<void> FasterStore::MaybeSpill(sim::SimThread& thread,
                                        IDevice& device, Bytes incoming) {
  // Make room for `incoming` bytes of appends in the mutable region.
  while (tail_ + incoming > head_ + config_.memory_budget) {
    if (spill_inflight_) {
      // Another thread's spill is draining; poll completions and wait.
      co_await device.Poll(thread);
      co_await thread.Idle(500);
      continue;
    }
    spill_inflight_ = true;
    const std::uint64_t spill_at = head_;
    const Bytes page = kSpillPage;
    ++spills_;
    // The page is contiguous in the circular buffer because budget is a
    // multiple of the page size.
    co_await device.WriteAsync(
        thread, MemSlotAddr(spill_at), spill_at,
        static_cast<std::uint32_t>(page), [this, spill_at, page] {
          COWBIRD_CHECK(head_ == spill_at);
          head_ += page;
          spill_inflight_ = false;
        });
    // Wait for the spill to land before reusing the region.
    while (spill_inflight_) {
      co_await device.Poll(thread);
      if (spill_inflight_) co_await thread.Idle(500);
    }
  }
}

sim::Task<void> FasterStore::Upsert(sim::SimThread& thread, IDevice& device,
                                    std::uint64_t key,
                                    std::span<const std::uint8_t> value) {
  const Bytes record = RecordSize(static_cast<std::uint32_t>(value.size()));
  co_await thread.Work(kOpOverhead, sim::CpuCategory::kCompute);
  // Records never straddle a spill-page boundary (FASTER pads pages); a
  // straddling record would be half-spilled, half-mutable.
  const std::uint64_t in_page = tail_ % kSpillPage;
  const Bytes pad = in_page + record > kSpillPage ? kSpillPage - in_page : 0;
  co_await MaybeSpill(thread, device, pad + record);

  // Append at the tail: header + value, one streaming copy.
  tail_ += pad;
  const std::uint64_t addr = tail_;
  tail_ += record;
  const std::uint64_t mem_addr = MemSlotAddr(addr);
  memory_->WriteValue<std::uint64_t>(mem_addr, key);
  memory_->WriteValue<std::uint32_t>(mem_addr + 8,
                                     static_cast<std::uint32_t>(value.size()));
  memory_->WriteValue<std::uint32_t>(mem_addr + 12, 0);
  memory_->Write(mem_addr + 16, value);
  co_await thread.Work(rdma::cost::CopyCost(record),
                       sim::CpuCategory::kCompute);

  // Index update: hash + one cache-missing bucket access.
  const std::uint64_t slot = IndexSlot(key);
  if (index_[slot].address == kInvalidAddress) ++live_keys_;
  index_[slot] = IndexEntry{key, addr,
                            static_cast<std::uint32_t>(value.size())};
  co_await thread.Work(kHashCost + rdma::cost::kLocalAccess,
                       sim::CpuCategory::kCompute);
}

sim::Task<FasterStore::ReadStatus> FasterStore::Read(sim::SimThread& thread,
                                                     IDevice& device,
                                                     std::uint64_t key,
                                                     std::uint64_t dest_addr,
                                                     CompletionFn done) {
  // Operation context + index probe.
  co_await thread.Work(kOpOverhead + kHashCost + rdma::cost::kLocalAccess,
                       sim::CpuCategory::kCompute);
  const std::uint64_t slot = IndexSlot(key);
  const IndexEntry& entry = index_[slot];
  if (entry.address == kInvalidAddress) co_return ReadStatus::kNotFound;

  // The record length is not known until the record is inspected; the
  // benchmarks use fixed-size values, and FASTER reads full pages/records —
  // we read the header from the index side by consulting the log.
  const std::uint64_t addr = entry.address;
  if (addr >= head_) {
    // Mutable/read-only in-memory region.
    const std::uint64_t mem_addr = MemSlotAddr(addr);
    const auto vlen = memory_->ReadValue<std::uint32_t>(mem_addr + 8);
    const Bytes record = RecordSize(vlen);
    std::vector<std::uint8_t> buf(record);
    memory_->Read(mem_addr, buf);
    memory_->Write(dest_addr, buf);
    co_await thread.Work(rdma::cost::LocalRecordCost(record),
                         sim::CpuCategory::kCompute);
    co_return ReadStatus::kLocal;
  }

  // Spilled: fetch the exact record through the device (the index carries
  // the value length, as FASTER's tentative entries carry size class info).
  const Bytes record = RecordSize(entry.value_len);
  co_await device.ReadAsync(thread, addr, dest_addr,
                            static_cast<std::uint32_t>(record),
                            std::move(done));
  co_return ReadStatus::kPending;
}

}  // namespace cowbird::faster
