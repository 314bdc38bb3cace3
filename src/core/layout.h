// Compute-side buffer layout (Section 4.2, Figure 4).
//
// Each application hardware thread owns three rings in compute-node memory:
//   - request metadata ring: fixed 24-byte entries (Table 3)
//   - request data ring:     raw write payloads, variable length
//   - response data ring:    raw read results, variable length
// plus two bookkeeping blocks:
//   - "green" block: cursors advanced by the *client* (tails of the two
//     request rings, head of the response ring), packed contiguously across
//     threads so the offload engine fetches every thread's state with a
//     single RDMA read (requirement R3);
//   - "red" block: cursors/counters advanced by the *engine* (metadata head,
//     progress counters), likewise packed so one RDMA write updates all of
//     them (Phase IV).
//
// All addresses are compute-node virtual addresses inside one registered MR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/units.h"

namespace cowbird::core {

constexpr std::uint64_t kMetadataEntryBytes = 24;

// Green block (client-written): one per thread, 3 × u64 at these offsets.
constexpr std::uint64_t kGreenMetaTail = 0;   // metadata ring tail (slots)
constexpr std::uint64_t kGreenDataTail = 8;   // request data ring tail (bytes)
constexpr std::uint64_t kGreenRespHead = 16;  // response ring head (bytes)
constexpr std::uint64_t kGreenBlockBytes = 24;

// Red block (engine-written): one per thread, the five counters below as
// little-endian u64s in this order, so one RDMA write updates all of them
// (Phase IV). Both engines publish it through Pack and the client and the
// control plane read it through Unpack. It doubles as the progress snapshot
// a detach hands from one engine to the next attach: the red block is by
// construction exactly the state a fresh engine needs to resume an instance.
struct RedBlock {
  std::uint64_t meta_head = 0;       // metadata entries consumed by engine
  std::uint64_t data_head = 0;       // request-data bytes consumed (info)
  std::uint64_t resp_tail = 0;       // response bytes delivered (info)
  std::uint64_t write_progress = 0;  // seq of last completed write
  std::uint64_t read_progress = 0;   // seq of last completed read

  bool operator==(const RedBlock&) const = default;

  void Pack(std::span<std::uint8_t> out) const;
  static RedBlock Unpack(std::span<const std::uint8_t> in);
};
constexpr std::uint64_t kRedBlockBytes = 40;

inline void RedBlock::Pack(std::span<std::uint8_t> out) const {
  COWBIRD_CHECK(out.size() >= kRedBlockBytes);
  const std::uint64_t fields[] = {meta_head, data_head, resp_tail,
                                  write_progress, read_progress};
  for (std::size_t f = 0; f < 5; ++f) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[8 * f + b] = static_cast<std::uint8_t>(fields[f] >> (8 * b));
    }
  }
}

inline RedBlock RedBlock::Unpack(std::span<const std::uint8_t> in) {
  COWBIRD_CHECK(in.size() >= kRedBlockBytes);
  std::uint64_t fields[5] = {};
  for (std::size_t f = 0; f < 5; ++f) {
    for (std::size_t b = 0; b < 8; ++b) {
      fields[f] |= static_cast<std::uint64_t>(in[8 * f + b]) << (8 * b);
    }
  }
  return RedBlock{fields[0], fields[1], fields[2], fields[3], fields[4]};
}

struct InstanceLayout {
  std::uint64_t base = 0;       // start of the registered client-buffer MR
  int threads = 1;
  std::uint64_t meta_slots = 1024;          // metadata entries per thread
  std::uint64_t data_capacity = MiB(1);     // request-data bytes per thread
  std::uint64_t resp_capacity = MiB(1);     // response bytes per thread

  // Region order within the MR: green blocks (all threads, contiguous),
  // red blocks (all threads, contiguous), then per-thread rings.
  std::uint64_t GreenBase() const { return base; }
  std::uint64_t GreenAddr(int thread) const {
    COWBIRD_DCHECK(thread < threads);
    return base + static_cast<std::uint64_t>(thread) * kGreenBlockBytes;
  }
  std::uint64_t GreenBytesTotal() const {
    return static_cast<std::uint64_t>(threads) * kGreenBlockBytes;
  }

  std::uint64_t RedBase() const { return base + GreenBytesTotal(); }
  std::uint64_t RedAddr(int thread) const {
    COWBIRD_DCHECK(thread < threads);
    return RedBase() + static_cast<std::uint64_t>(thread) * kRedBlockBytes;
  }
  std::uint64_t RedBytesTotal() const {
    return static_cast<std::uint64_t>(threads) * kRedBlockBytes;
  }

  std::uint64_t PerThreadRingBytes() const {
    return meta_slots * kMetadataEntryBytes + data_capacity + resp_capacity;
  }
  std::uint64_t RingsBase() const { return RedBase() + RedBytesTotal(); }

  std::uint64_t MetaRingAddr(int thread) const {
    return RingsBase() +
           static_cast<std::uint64_t>(thread) * PerThreadRingBytes();
  }
  // Address of metadata slot for a monotonic cursor value.
  std::uint64_t MetaSlotAddr(int thread, std::uint64_t cursor) const {
    return MetaRingAddr(thread) + (cursor % meta_slots) * kMetadataEntryBytes;
  }
  std::uint64_t DataRingAddr(int thread) const {
    return MetaRingAddr(thread) + meta_slots * kMetadataEntryBytes;
  }
  std::uint64_t RespRingAddr(int thread) const {
    return DataRingAddr(thread) + data_capacity;
  }

  std::uint64_t TotalBytes() const {
    return GreenBytesTotal() + RedBytesTotal() +
           static_cast<std::uint64_t>(threads) * PerThreadRingBytes();
  }
};

}  // namespace cowbird::core
