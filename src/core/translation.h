// Range-based address translation for the elastic memory pool.
//
// MIND (NSDI '21) argues the network is the right place for memory
// management: the switch holds a range table mapping virtual pool addresses
// to {memory server, rkey, server offset} and rewrites RDMA requests at
// line rate. This header is that table, engine-agnostic: the Cowbird-P4
// model installs it as a pipeline match stage (range match in the data
// plane), while the Cowbird-Spot agent mirrors the same entries agent-side
// and consults them before posting each pool verb — the same placement
// asymmetry as the TDM discussion in §5.4 (what the switch does per packet,
// the agent does per operation). See DESIGN.md §14.
//
// A region is a contiguous *virtual* interval (what the client addresses);
// its backing may be split across servers as multiple ranges with per-range
// ownership. Migration retargets one range's owner atomically in virtual
// time — lookups before the flip resolve to the old server, lookups after
// to the new one, and nothing in between.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/packet.h"

namespace cowbird::core {

// One translation entry: virtual interval [vbase, vbase+length) of
// `region_id` lives on `node` at [server_base, server_base+length) under
// `rkey`.
struct RangeEntry {
  std::uint16_t region_id = 0;
  std::uint64_t vbase = 0;
  Bytes length = 0;
  net::NodeId node = 0;
  std::uint32_t rkey = 0;
  std::uint64_t server_base = 0;

  bool Contains(std::uint64_t vaddr, std::uint64_t len) const {
    return vaddr >= vbase && vaddr + len <= vbase + length && len <= length;
  }
};

// A resolved pool access: post to `node` at `addr` under `rkey`.
struct Translation {
  net::NodeId node = 0;
  std::uint32_t rkey = 0;
  std::uint64_t addr = 0;
};

// Structured lookup failure: names the address and the nearest mapped
// ranges so a misrouted access reads like a page-fault report, not a
// silent nullopt.
struct TranslateError {
  enum class Kind : std::uint8_t {
    kUnknownRegion,  // no range registered for the region id at all
    kUnmappedHole,   // address falls between mapped ranges
    kStraddle,       // access starts in one range but crosses its end
  };
  Kind kind = Kind::kUnknownRegion;
  std::uint16_t region_id = 0;
  std::uint64_t vaddr = 0;
  std::uint64_t length = 0;
  bool has_below = false;  // nearest mapped range ending at or below vaddr
  bool has_above = false;  // nearest mapped range starting above vaddr
  RangeEntry below;
  RangeEntry above;

  std::string ToString() const;
};

// Sorted, non-overlapping range table. Single-writer (the control plane /
// migration coordinator); engines hold their own mirror built from the
// descriptor, so a live engine never observes a mutation.
class TranslationTable {
 public:
  // Inserts one range; CHECK-fails on overlap with an existing range of the
  // same region.
  void Install(const RangeEntry& entry);

  // Atomically repoints the range identified by (region_id, vbase) at a new
  // owner. Returns false if no such range exists. This is the migration
  // cutover: a single in-place store in virtual time.
  bool Retarget(std::uint16_t region_id, std::uint64_t vbase,
                net::NodeId node, std::uint32_t rkey,
                std::uint64_t server_base);

  // Resolves `length` bytes at virtual address `vaddr` of `region_id`.
  // On failure returns nullopt and fills `error` (when non-null) with the
  // address and its nearest mapped neighbours.
  std::optional<Translation> Lookup(std::uint16_t region_id,
                                    std::uint64_t vaddr, std::uint64_t length,
                                    TranslateError* error = nullptr) const;

  // All ranges of one region, ascending vbase.
  std::vector<RangeEntry> RangesFor(std::uint16_t region_id) const;

  const std::vector<RangeEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  // Sorted by (region_id, vbase) — lookups lower-bound into the region's
  // slice, the software analogue of the switch's range-match stage.
  std::vector<RangeEntry> entries_;
};

// An engine's lookup of a pool access it is about to issue. A miss means
// the client addressed outside its regions or the engine's mirror is stale
// (a control-plane bug), so it aborts with the structured error: the log
// names the address and its nearest mapped neighbours.
Translation MustTranslate(const TranslationTable& table,
                          std::uint16_t region_id, std::uint64_t vaddr,
                          std::uint32_t length);

}  // namespace cowbird::core
