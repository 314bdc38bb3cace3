#include "spot/staging_arena.h"

#include <bit>

#include "common/check.h"

namespace cowbird::spot {

StagingArena::StagingArena(std::uint64_t base, Bytes capacity)
    : base_(base), capacity_(capacity) {
  // Offsets are kept as 32 bits.
  COWBIRD_CHECK(capacity_ <= (Bytes{1} << 32));
  free_.resize(static_cast<std::size_t>(ClassOf(capacity_)) + 1);
}

int StagingArena::ClassOf(Bytes len) {
  if (len <= kMinBlock) return 0;
  return std::bit_width(len - 1) - std::bit_width(kMinBlock - 1);
}

std::optional<std::uint64_t> StagingArena::Alloc(Bytes len) {
  const auto cls = static_cast<std::size_t>(ClassOf(len));
  const Bytes block = kMinBlock << cls;
  std::uint32_t offset = 0;
  if (cls < free_.size() && !free_[cls].empty()) {
    offset = free_[cls].back();
    free_[cls].pop_back();
  } else {
    if (block > capacity_ - cursor_) return std::nullopt;
    offset = static_cast<std::uint32_t>(cursor_);
    cursor_ += block;
  }
  in_use_ += block;
  if (in_use_ > high_water_) high_water_ = in_use_;
  return base_ + offset;
}

void StagingArena::Release(std::uint64_t addr, Bytes len) {
  const auto cls = static_cast<std::size_t>(ClassOf(len));
  const Bytes block = kMinBlock << cls;
  COWBIRD_DCHECK(addr >= base_ && addr - base_ + block <= cursor_);
  COWBIRD_DCHECK(in_use_ >= block);
  in_use_ -= block;
  free_[cls].push_back(static_cast<std::uint32_t>(addr - base_));
}

}  // namespace cowbird::spot
