// The Spot agent's staging memory: a fixed range of its host's address
// space, handed out in blocks that return to the arena when the transfer
// using them completes — the registered buffer pool a real agent posts
// from and reuses on every completion.
//
// Blocks come in power-of-two size classes from kMinBlock up, each with its
// own LIFO free list. A request takes the most recently released block of
// its class, and carves a fresh one from a bump cursor only when that list
// is empty. Blocks never split, merge or move, and the cursor never wraps:
// when it cannot carve a block the request fails and the caller waits for a
// release. So the bytes of a live block are never handed out twice, and in
// steady state every request is served from a free list.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

namespace cowbird::spot {

class StagingArena {
 public:
  static constexpr Bytes kMinBlock = 64;

  // Manages [base, base + capacity).
  StagingArena(std::uint64_t base, Bytes capacity);

  // The address of a block of at least `len` bytes, or nullopt when the
  // class has no free block and the cursor cannot carve one.
  std::optional<std::uint64_t> Alloc(Bytes len);
  // Returns a block that Alloc(len) handed out, with the same `len`.
  void Release(std::uint64_t addr, Bytes len);

  static Bytes BlockBytes(Bytes len) { return kMinBlock << ClassOf(len); }

  std::uint64_t base() const { return base_; }
  Bytes capacity() const { return capacity_; }
  // Bytes of the blocks handed out and not yet released.
  Bytes in_use() const { return in_use_; }
  Bytes high_water() const { return high_water_; }
  // Bytes the cursor has carved so far; it never shrinks.
  Bytes carved() const { return cursor_; }

 private:
  static int ClassOf(Bytes len);

  std::uint64_t base_;
  Bytes capacity_;
  Bytes cursor_ = 0;
  Bytes in_use_ = 0;
  Bytes high_water_ = 0;
  // Per size class: offsets of released blocks.
  std::vector<std::vector<std::uint32_t>> free_;
};

}  // namespace cowbird::spot
