// FASTER-like key-value store with a hybrid log (Section 7).
//
// Records live in a log: the mutable tail is a circular buffer in compute-
// node memory; older data is spilled, page at a time, to an IDevice (SSD,
// RDMA, or Cowbird — Figure 9's series). A read first probes the hash index
// for the record's logical address, then fetches it from memory or from the
// device. Upserts append at the tail (RCU-style, as in FASTER) and update
// the index; appends apply backpressure until eviction frees budget.
//
// Record layout: [key u64][value_len u32][pad u32][value ...], rounded up
// to 8 bytes. Values written by the benchmarks embed the key in their first
// 8 bytes, so every read — including those that traveled through the whole
// Cowbird or RDMA stack — is verified end-to-end.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/sparse_memory.h"
#include "common/units.h"
#include "faster/idevice.h"
#include "rdma/params.h"
#include "sim/task.h"
#include "sim/thread.h"

namespace cowbird::faster {

constexpr std::uint64_t kInvalidAddress = ~0ull;

class FasterStore {
 public:
  static constexpr Bytes kSpillPage = KiB(32);  // eviction granularity
  // Mutable region in compute memory.
  static constexpr std::uint64_t kLogBase = 0x9000'0000;
  // CPU model for index operations.
  static constexpr Nanos kHashCost = 25;
  // Per-operation FASTER machinery: epoch protection, operation context
  // allocation, status plumbing. Calibrated so local-memory throughput per
  // thread lands near the paper's Figure 9 testbed.
  static constexpr Nanos kOpOverhead = 800;

  struct Config {
    std::uint64_t index_buckets = 1 << 20;  // power of two
    Bytes memory_budget = MiB(16);          // mutable-region size
  };

  FasterStore(SparseMemory& memory, Config config);

  Bytes RecordSize(std::uint32_t value_len) const {
    return (16 + value_len + 7) & ~Bytes{7};
  }

  // Appends (or updates) key → value. May suspend on eviction backpressure.
  // `device` is the calling thread's storage backend (used for spills).
  sim::Task<void> Upsert(sim::SimThread& thread, IDevice& device,
                         std::uint64_t key,
                         std::span<const std::uint8_t> value);

  enum class ReadStatus : std::uint8_t {
    kLocal,     // completed inline; record bytes are at dest_addr
    kPending,   // `done` fires when the record lands at dest_addr
    kNotFound,
  };

  // Looks up `key`; materializes the record (header + value) at dest_addr.
  sim::Task<ReadStatus> Read(sim::SimThread& thread, IDevice& device,
                             std::uint64_t key, std::uint64_t dest_addr,
                             CompletionFn done);

  std::uint64_t tail() const { return tail_; }
  std::uint64_t head() const { return head_; }
  Bytes InMemoryBytes() const { return tail_ - head_; }
  std::uint64_t spills() const { return spills_; }
  std::uint64_t size() const { return live_keys_; }
  const Config& config() const { return config_; }

 private:
  struct IndexEntry {
    std::uint64_t key = 0;
    std::uint64_t address = kInvalidAddress;
    std::uint32_t value_len = 0;  // lets reads size spilled fetches exactly
  };

  static std::uint64_t HashKey(std::uint64_t key);
  // Returns the slot for `key` (existing or first free), linear probing.
  std::uint64_t IndexSlot(std::uint64_t key) const;

  // In-memory position of a logical address.
  std::uint64_t MemSlotAddr(std::uint64_t logical) const {
    return kLogBase + (logical % config_.memory_budget);
  }

  sim::Task<void> MaybeSpill(sim::SimThread& thread, IDevice& device,
                             Bytes incoming);

  SparseMemory* memory_;
  Config config_;
  std::vector<IndexEntry> index_;
  std::uint64_t tail_ = 0;  // next append address (logical)
  std::uint64_t head_ = 0;  // below head_: on the device
  std::uint64_t live_keys_ = 0;
  bool spill_inflight_ = false;
  std::uint64_t spills_ = 0;
};

}  // namespace cowbird::faster
