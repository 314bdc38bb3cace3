// A seeded, serializable description of every fault a chaos run injects.
//
// The plan is pure data: packet-level fault rates (drop / duplicate /
// reorder / delay), link-partition windows during which every RDMA packet
// is dropped, and engine crash times that move the instance to a standby.
// A run is fully determined by (engine, workload, plan, seed), which is
// what makes a captured failure trace replayable bit-for-bit.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/units.h"

namespace cowbird::chaos {

// Whole-value parse shared by the trace parsers: an empty value, trailing
// characters or a value out of T's range refuse it.
template <typename T>
bool ParseWhole(std::string_view value, T& out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Shared-fabric congestion scenarios a chaos run can layer on top of the
// packet faults. kIncast shrinks the switch's egress queues and turns on
// ECN marking + DCQCN so the fabric is genuinely contended; kVictim is the
// same contention shape but the checker's interest shifts to the
// uncongested flows (they must keep their rate); kPauseStorm enables PFC
// and injects repeated pause frames at the switch egress links.
enum class CongestionScenario : std::uint8_t {
  kNone,
  kIncast,
  kVictim,
  kPauseStorm,
};

const char* CongestionScenarioName(CongestionScenario scenario);
std::optional<CongestionScenario> ParseCongestionScenario(
    std::string_view name);

struct FaultPlan {
  // Per-RDMA-packet fault probabilities. The injector draws one uniform
  // variate per packet and partitions it, so the faults are mutually
  // exclusive and the rates are additive (their sum must stay <= 1).
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  double delay_rate = 0.0;

  // Plain delay faults hold a packet for a uniform draw in [min, max].
  Nanos delay_min = 500;
  Nanos delay_max = 5000;
  // Reorder faults hold a packet long enough for later arrivals to pass
  // it (several serialization times plus propagation).
  Nanos reorder_delay = Micros(5);
  // Duplicate faults emit between 1 and this many extra copies.
  int max_duplicates = 2;

  // Link-partition windows: while sim time is inside one, every RDMA
  // packet on the faulted links is dropped.
  struct Partition {
    Nanos start = 0;
    Nanos end = 0;
  };
  std::vector<Partition> partitions;

  // Engine crash times. At each, the chaos runner kills the serving engine
  // without draining (halting its QPs) and re-attaches the instance to a
  // Spot standby.
  std::vector<Nanos> crashes;

  // Congestion scenario (kNone by default; Serialize omits the key then,
  // so pre-congestion traces round-trip byte-identically).
  CongestionScenario congestion = CongestionScenario::kNone;

  // Live region migration (DESIGN.md §14): at `migrate_start` the runner
  // begins copying the region's hot range from the primary memory server
  // to a second one and cuts the translation entry over mid-run, while the
  // workload keeps issuing. Off by default — and omitted from Serialize
  // then — so pre-migration traces stay byte-identical.
  bool migrate = false;
  Nanos migrate_start = Micros(150);

  bool AnyPacketFaults() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           delay_rate > 0 || !partitions.empty();
  }

  // What RunChaos runs: every rate in [0, 1] and their sum at most 1,
  // 0 <= delay_min <= delay_max, reorder_delay >= 0, 1..16 duplicates,
  // partitions with 0 <= start <= end, and no crash or migration start
  // before time 0.
  bool Valid() const;

  // One-line key=value form used in failure traces.
  std::string Serialize() const;
  // Refuses (nullopt) an unknown key, a value that is not wholly a number,
  // and plans that are not Valid().
  static std::optional<FaultPlan> Parse(std::string_view line);

  // Derives a randomized mixed plan from a seed: moderate fault rates, a
  // chance of partitions, and `crashes` crash events. Every sweep seed
  // exercises a different mixture deterministically.
  static FaultPlan FromSeed(std::uint64_t seed, int crash_count);
};

}  // namespace cowbird::chaos
