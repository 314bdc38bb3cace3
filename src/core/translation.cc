#include "core/translation.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace cowbird::core {

namespace {

bool Before(const RangeEntry& e, std::pair<std::uint16_t, std::uint64_t> key) {
  if (e.region_id != key.first) return e.region_id < key.first;
  return e.vbase < key.second;
}

bool KeyBefore(std::pair<std::uint16_t, std::uint64_t> key,
               const RangeEntry& e) {
  if (key.first != e.region_id) return key.first < e.region_id;
  return key.second < e.vbase;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Describe(const RangeEntry& e) {
  return "[" + Hex(e.vbase) + ", " + Hex(e.vbase + e.length) + ") -> node " +
         std::to_string(e.node) + " @ " + Hex(e.server_base);
}

}  // namespace

std::string TranslateError::ToString() const {
  std::string out = "translate failed: region " + std::to_string(region_id) +
                    " vaddr " + Hex(vaddr) + " len " + std::to_string(length);
  switch (kind) {
    case Kind::kUnknownRegion:
      out += ": no ranges mapped for this region";
      break;
    case Kind::kUnmappedHole:
      out += ": address falls in an unmapped hole";
      break;
    case Kind::kStraddle:
      out += ": access straddles a range boundary";
      break;
  }
  if (has_below) out += "; nearest range below: " + Describe(below);
  if (has_above) out += "; nearest range above: " + Describe(above);
  if (!has_below && !has_above && kind != Kind::kUnknownRegion) {
    out += "; no mapped neighbours";
  }
  return out;
}

void TranslationTable::Install(const RangeEntry& entry) {
  COWBIRD_CHECK(entry.length > 0);
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             std::make_pair(entry.region_id, entry.vbase),
                             Before);
  // No overlap with the neighbour on either side (same region only).
  if (it != entries_.begin()) {
    const RangeEntry& prev = *std::prev(it);
    COWBIRD_CHECK(prev.region_id != entry.region_id ||
                  prev.vbase + prev.length <= entry.vbase);
  }
  if (it != entries_.end()) {
    COWBIRD_CHECK(it->region_id != entry.region_id ||
                  entry.vbase + entry.length <= it->vbase);
  }
  entries_.insert(it, entry);
}

bool TranslationTable::Retarget(std::uint16_t region_id, std::uint64_t vbase,
                                net::NodeId node, std::uint32_t rkey,
                                std::uint64_t server_base) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             std::make_pair(region_id, vbase), Before);
  if (it == entries_.end() || it->region_id != region_id ||
      it->vbase != vbase) {
    return false;
  }
  it->node = node;
  it->rkey = rkey;
  it->server_base = server_base;
  return true;
}

std::optional<Translation> TranslationTable::Lookup(
    std::uint16_t region_id, std::uint64_t vaddr, std::uint64_t length,
    TranslateError* error) const {
  // First entry with vbase > vaddr; the candidate owner is the one before.
  auto above = std::upper_bound(entries_.begin(), entries_.end(),
                                std::make_pair(region_id, vaddr), KeyBefore);
  auto candidate = entries_.end();
  if (above != entries_.begin()) {
    auto prev = std::prev(above);
    if (prev->region_id == region_id) candidate = prev;
  }
  if (candidate != entries_.end() && candidate->Contains(vaddr, length)) {
    return Translation{candidate->node, candidate->rkey,
                       candidate->server_base + (vaddr - candidate->vbase)};
  }
  if (error != nullptr) {
    error->region_id = region_id;
    error->vaddr = vaddr;
    error->length = length;
    error->has_below = candidate != entries_.end();
    if (error->has_below) error->below = *candidate;
    error->has_above =
        above != entries_.end() && above->region_id == region_id;
    if (error->has_above) error->above = *above;
    if (!error->has_below && !error->has_above) {
      error->kind = TranslateError::Kind::kUnknownRegion;
    } else if (candidate != entries_.end() && vaddr >= candidate->vbase &&
               vaddr < candidate->vbase + candidate->length) {
      error->kind = TranslateError::Kind::kStraddle;
    } else {
      error->kind = TranslateError::Kind::kUnmappedHole;
    }
  }
  return std::nullopt;
}

std::vector<RangeEntry> TranslationTable::RangesFor(
    std::uint16_t region_id) const {
  std::vector<RangeEntry> out;
  for (const RangeEntry& e : entries_) {
    if (e.region_id == region_id) out.push_back(e);
  }
  return out;
}

Translation MustTranslate(const TranslationTable& table,
                          std::uint16_t region_id, std::uint64_t vaddr,
                          std::uint32_t length) {
  TranslateError error;
  const std::optional<Translation> t =
      table.Lookup(region_id, vaddr, length, &error);
  if (!t.has_value()) [[unlikely]] {
    std::fprintf(stderr, "translation failed: %s\n", error.ToString().c_str());
    COWBIRD_CHECK(t.has_value());
  }
  return *t;
}

}  // namespace cowbird::core
