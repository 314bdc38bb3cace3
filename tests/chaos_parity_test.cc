// Datapath parity pin: the canonical 8-seed chaos sweep (both engines) must
// produce byte-identical checked histories and fault counters across
// allocator-path changes. Four scenario overlays (live migration and the
// incast, victim and pause-storm congestion scenarios, applied the way
// chaos_sweep applies them) pin the second memory server, the congested
// switch/NIC configurations and the bystander flows the same way. A last
// block of migration seeds pins the runs where an engine crash lands while
// the instance is parked for the cutover, between its detach and its
// re-attach.
//
// The pooled/allocation-free datapath work is only legal because it does not
// perturb simulated behavior: pool slot addresses, recycled packet buffers,
// and flat-map lookups must leave every event ordering — and therefore every
// CheckHistory outcome and injector counter — exactly as the heap-allocating
// code produced them. This test pins that claim to a committed golden file:
// each (engine, seed) run is reduced to one line carrying an FNV-1a digest
// of the full serialized trace (options, violations, complete operation
// history) plus the run's externally visible counters.
//
// Regenerating the golden is an explicit act, for behavior changes that are
// *meant* to alter outcomes (protocol fixes, workload changes):
//
//   COWBIRD_UPDATE_CHAOS_GOLDEN=1 ./tests/chaos_parity_test
//
// and the diff of tests/goldens/chaos_parity.golden should be reviewed like
// code: an unexpected digest change means the "optimization" changed what
// the simulation does.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/history.h"
#include "chaos/runner.h"
#include "chaos/trace.h"
#include "gtest/gtest.h"

namespace cowbird::chaos {
namespace {

constexpr std::uint64_t kSweepSeeds = 8;
constexpr std::uint64_t kOverlaySeeds = 4;
// Migration-overlay seeds whose crashes land inside the cutover window (in
// Spot 9 and 49 and P4 9 and 17, both crashes do).
constexpr std::uint64_t kCutoverCrashSpotSeeds[] = {9, 15, 49};
constexpr std::uint64_t kCutoverCrashP4Seeds[] = {9, 17, 21};

std::string GoldenPath() {
  return std::string(COWBIRD_SOURCE_DIR) + "/tests/goldens/chaos_parity.golden";
}

// One line per run: every field a behavior change could move. The trace
// digest covers the complete operation history byte-for-byte (ids, invoke /
// complete times in virtual nanoseconds, payload digests) via the same
// serialization the replay tooling trusts.
// A scenario layered on the sweep's seed-derived fault plan, as chaos_sweep
// --migration / --congestion layers it.
struct Overlay {
  bool migrate = false;
  CongestionScenario congestion = CongestionScenario::kNone;
};

std::string RunLine(EngineKind engine, std::uint64_t seed,
                    Overlay overlay = {}) {
  ChaosOptions opt = SweepOptions(engine, seed);
  opt.plan.migrate = overlay.migrate;
  opt.plan.congestion = overlay.congestion;
  const ChaosResult result = RunChaos(opt);
  const std::string trace = SerializeTrace(MakeTrace(opt, result));
  const std::uint64_t digest = HistoryRecorder::Digest(std::span(
      reinterpret_cast<const std::uint8_t*>(trace.data()), trace.size()));
  char buf[320];
  int n = 0;
  if (overlay.migrate) {
    n = std::snprintf(buf, sizeof(buf), "migrate ");
  } else if (overlay.congestion != CongestionScenario::kNone) {
    n = std::snprintf(buf, sizeof(buf), "congestion=%s ",
                      CongestionScenarioName(overlay.congestion));
  }
  std::snprintf(
      buf + n, sizeof(buf) - static_cast<std::size_t>(n),
      "engine=%s seed=%llu trace_fnv=%016llx violations=%zu reads=%llu "
      "writes=%llu faults=%llu drop=%llu dup=%llu reorder=%llu delay=%llu "
      "crashes=%llu counters_exact=%d",
      EngineKindName(engine), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(digest), result.violations.size(),
      static_cast<unsigned long long>(result.reads_checked),
      static_cast<unsigned long long>(result.writes_completed),
      static_cast<unsigned long long>(result.faults_injected),
      static_cast<unsigned long long>(result.decided_dropped),
      static_cast<unsigned long long>(result.decided_duplicated),
      static_cast<unsigned long long>(result.decided_reordered),
      static_cast<unsigned long long>(result.decided_delayed),
      static_cast<unsigned long long>(result.crashes_executed),
      result.counters_exact ? 1 : 0);
  return buf;
}

std::vector<std::string> SweepLines() {
  std::vector<std::string> lines;
  for (const EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      lines.push_back(RunLine(engine, seed));
    }
  }
  const Overlay overlays[] = {
      {.migrate = true},
      {.congestion = CongestionScenario::kIncast},
      {.congestion = CongestionScenario::kVictim},
      {.congestion = CongestionScenario::kPauseStorm},
  };
  for (const Overlay& overlay : overlays) {
    for (const EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
      for (std::uint64_t seed = 1; seed <= kOverlaySeeds; ++seed) {
        lines.push_back(RunLine(engine, seed, overlay));
      }
    }
  }
  for (const std::uint64_t seed : kCutoverCrashSpotSeeds) {
    lines.push_back(RunLine(EngineKind::kSpot, seed, {.migrate = true}));
  }
  for (const std::uint64_t seed : kCutoverCrashP4Seeds) {
    lines.push_back(RunLine(EngineKind::kP4, seed, {.migrate = true}));
  }
  return lines;
}

TEST(ChaosParity, EightSeedSweepMatchesGolden) {
  const std::vector<std::string> lines = SweepLines();

  if (std::getenv("COWBIRD_UPDATE_CHAOS_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << "missing golden " << GoldenPath()
      << " — generate with COWBIRD_UPDATE_CHAOS_GOLDEN=1";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }

  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i])
        << "chaos outcome diverged from the pre-change pin (run " << i
        << "); the datapath change altered simulated behavior";
  }
}

}  // namespace
}  // namespace cowbird::chaos
