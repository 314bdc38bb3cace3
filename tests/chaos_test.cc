// The chaos harness end to end: seeded fault plans, exact injection
// accounting, history-based linearizability checking across both engines,
// engine-crash migration, and the deliberately-broken-fence canary that
// proves the checker can catch a real consistency bug.
#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.h"
#include "chaos/history.h"
#include "chaos/runner.h"
#include "test_seed.h"

namespace cowbird::chaos {
namespace {

using cowbird::testing::TestSeed;

std::string Report(const ChaosResult& result) {
  std::string out;
  for (const Violation& v : result.violations) {
    out += v.Format();
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checker unit tests (pure history, no simulation).
// ---------------------------------------------------------------------------

TEST(HistoryCheckerTest, CleanHistoryLinearizes) {
  HistoryRecorder rec;
  std::vector<std::uint8_t> v1(32, 1), v2(32, 2);
  const auto w1 = rec.OnInvoke(0, true, 1, 0, 32, 10,
                               HistoryRecorder::Digest(v1));
  rec.OnComplete(w1, 20);
  const auto r1 = rec.OnInvoke(0, false, 1, 0, 32, 30);
  rec.OnComplete(r1, 40, HistoryRecorder::Digest(v1));
  const auto w2 = rec.OnInvoke(1, true, 1, 0, 32, 50,
                               HistoryRecorder::Digest(v2));
  rec.OnComplete(w2, 60);
  const auto r2 = rec.OnInvoke(1, false, 1, 0, 32, 70);
  rec.OnComplete(r2, 80, HistoryRecorder::Digest(v2));
  EXPECT_TRUE(CheckHistory(rec.ops()).empty());
}

TEST(HistoryCheckerTest, ReadBeforeAnyWriteSeesZeroes) {
  HistoryRecorder rec;
  const std::vector<std::uint8_t> zeros(64, 0);
  const auto r = rec.OnInvoke(0, false, 1, 4096, 64, 5);
  rec.OnComplete(r, 9, HistoryRecorder::Digest(zeros));
  EXPECT_TRUE(CheckHistory(rec.ops()).empty());
}

TEST(HistoryCheckerTest, StaleReadAfterSameThreadWriteIsFlagged) {
  HistoryRecorder rec;
  std::vector<std::uint8_t> v1(32, 1);
  const std::vector<std::uint8_t> zeros(32, 0);
  const auto w = rec.OnInvoke(0, true, 1, 0, 32, 10,
                              HistoryRecorder::Digest(v1));
  // Read invoked after the write on the same thread must see v1, but
  // observes the pre-write zero state.
  const auto r = rec.OnInvoke(0, false, 1, 0, 32, 15);
  rec.OnComplete(r, 25, HistoryRecorder::Digest(zeros));
  rec.OnComplete(w, 30);
  const auto violations = CheckHistory(rec.ops());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "stale-read");
  EXPECT_EQ(violations[0].op_id, r);
}

TEST(HistoryCheckerTest, TornReadIsFlagged) {
  HistoryRecorder rec;
  std::vector<std::uint8_t> v1(32, 1), garbage(32, 0xEE);
  const auto w = rec.OnInvoke(0, true, 1, 0, 32, 10,
                              HistoryRecorder::Digest(v1));
  rec.OnComplete(w, 20);
  const auto r = rec.OnInvoke(0, false, 1, 0, 32, 30);
  rec.OnComplete(r, 40, HistoryRecorder::Digest(garbage));
  const auto violations = CheckHistory(rec.ops());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "torn-read");
}

TEST(HistoryCheckerTest, NeverCompletedOpIsFlagged) {
  HistoryRecorder rec;
  std::vector<std::uint8_t> v1(32, 1);
  rec.OnInvoke(0, true, 1, 0, 32, 10, HistoryRecorder::Digest(v1));
  const auto violations = CheckHistory(rec.ops());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "never-completed");
}

TEST(HistoryCheckerTest, FutureReadIsFlagged) {
  HistoryRecorder rec;
  std::vector<std::uint8_t> v1(32, 1);
  // The read completes before the write is even invoked, yet observes it.
  const auto r = rec.OnInvoke(0, false, 1, 0, 32, 5);
  rec.OnComplete(r, 8, HistoryRecorder::Digest(v1));
  const auto w = rec.OnInvoke(1, true, 1, 0, 32, 10,
                              HistoryRecorder::Digest(v1));
  rec.OnComplete(w, 20);
  const auto violations = CheckHistory(rec.ops());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, "future-read");
}

// ---------------------------------------------------------------------------
// Plan derivation and serialization.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, SerializeParsesBackIdentically) {
  FaultPlan plan = FaultPlan::FromSeed(1234, 2);
  plan.partitions.push_back(FaultPlan::Partition{1000, 2000});
  const auto parsed = FaultPlan::Parse(plan.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Serialize(), plan.Serialize());
  EXPECT_EQ(parsed->crashes, plan.crashes);
  ASSERT_EQ(parsed->partitions.size(), plan.partitions.size());
  EXPECT_EQ(parsed->partitions.back().start, 1000);
  EXPECT_EQ(parsed->partitions.back().end, 2000);
}

TEST(FaultPlanTest, CongestionScenarioRoundTrips) {
  for (const CongestionScenario scenario :
       {CongestionScenario::kIncast, CongestionScenario::kVictim,
        CongestionScenario::kPauseStorm}) {
    FaultPlan plan = FaultPlan::FromSeed(42, 1);
    plan.congestion = scenario;
    const std::string line = plan.Serialize();
    EXPECT_NE(line.find("congestion="), std::string::npos) << line;
    const auto parsed = FaultPlan::Parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->congestion, scenario);
    EXPECT_EQ(parsed->Serialize(), line);
  }
  EXPECT_FALSE(FaultPlan::Parse("congestion=bogus").has_value());
}

TEST(FaultPlanTest, LegacyLinesWithoutCongestionKeyStayByteCompatible) {
  // Traces captured before the congestion scenarios existed have no
  // congestion= token: they must parse to kNone and re-serialize to the
  // exact same bytes, so replaying an old trace dir still works and a
  // kNone plan never grows the new key.
  FaultPlan plan = FaultPlan::FromSeed(1234, 2);
  ASSERT_EQ(plan.congestion, CongestionScenario::kNone);
  const std::string line = plan.Serialize();
  EXPECT_EQ(line.find("congestion="), std::string::npos) << line;
  const auto parsed = FaultPlan::Parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->congestion, CongestionScenario::kNone);
  EXPECT_EQ(parsed->Serialize(), line);
}

TEST(FaultPlanTest, FromSeedIsDeterministic) {
  const FaultPlan a = FaultPlan::FromSeed(77, 1);
  const FaultPlan b = FaultPlan::FromSeed(77, 1);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  const FaultPlan c = FaultPlan::FromSeed(78, 1);
  EXPECT_NE(a.Serialize(), c.Serialize());
}

// Every plan the sweeps derive is one RunChaos runs, and its trace line
// parses back.
TEST(FaultPlanTest, FromSeedPlansAreValid) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    for (const int crashes : {0, 2}) {
      const FaultPlan plan = FaultPlan::FromSeed(seed, crashes);
      EXPECT_TRUE(plan.Valid()) << plan.Serialize();
      EXPECT_TRUE(FaultPlan::Parse(plan.Serialize()).has_value())
          << plan.Serialize();
    }
  }
}

// ---------------------------------------------------------------------------
// Full chaos runs.
// ---------------------------------------------------------------------------

ChaosOptions BaseOptions(EngineKind engine, std::uint64_t seed) {
  ChaosOptions opt;
  opt.engine = engine;
  opt.seed = seed;
  opt.workload.threads = 2;
  opt.workload.slots_per_thread = 4;
  opt.workload.len = 128;
  opt.workload.ops_per_thread = 200;
  return opt;
}

TEST(ChaosRunTest, InjectedFaultCountersMatchDecisionsExactly) {
  const std::uint64_t seed = TestSeed(11);
  COWBIRD_SCOPED_SEED(seed);
  ChaosOptions opt = BaseOptions(EngineKind::kSpot, seed);
  opt.plan.drop_rate = 0.02;
  opt.plan.duplicate_rate = 0.02;
  opt.plan.reorder_rate = 0.02;
  opt.plan.delay_rate = 0.05;
  const ChaosResult result = RunChaos(opt);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_TRUE(result.counters_exact);
  EXPECT_TRUE(result.violations.empty()) << Report(result);
  EXPECT_GT(result.reads_checked, 50u);
}

// perfbench's chaos-faults run shape on a P4 primary: 4 threads × 16
// outstanding over 64 slots each, 30 % writes, issuing until the runner's
// 20 ms deadline.
ChaosOptions P4ChaosFaultsShape(std::uint64_t seed) {
  ChaosOptions opt;
  opt.engine = EngineKind::kP4;
  opt.seed = seed;
  opt.workload.threads = 4;
  opt.workload.slots_per_thread = 64;
  opt.workload.len = 256;
  opt.workload.write_ratio = 0.3;
  opt.workload.max_outstanding = 16;
  opt.workload.ops_per_thread = 1'000'000;  // bounded by the issue deadline
  return opt;
}

// Drop, duplicate and reorder at `rate` each.
void SetPacketFaults(ChaosOptions& opt, double rate) {
  opt.plan.drop_rate = rate;
  opt.plan.duplicate_rate = rate;
  opt.plan.reorder_rate = rate;
}

// A P4 primary that dies while the red writes of its last completions are
// in Go-Back-N recovery: its registers cover ops the client's red block
// does not. The Spot standby resumes from those counters with nothing
// pending (P4 exports none). Unless it republishes them, the client's
// window stays full of ops it cannot retire, it issues nothing a probe
// could find, and those ops never retire. The shape is perfbench's
// chaos-faults run on a P4 primary; without the republish, these seeds
// strand 32 and 16 ops.
TEST(ChaosRunTest, SurvivorRepublishesCountersADeadP4EngineNeverPublished) {
  for (const std::uint64_t seed : {32002, 32113}) {
    COWBIRD_SCOPED_SEED(seed);
    ChaosOptions opt = P4ChaosFaultsShape(seed);
    SetPacketFaults(opt, 0.0005);
    opt.plan.crashes = {Millis(10)};
    const ChaosResult result = RunChaos(opt);
    EXPECT_EQ(result.crashes_executed, 1u);
    EXPECT_TRUE(result.Passed()) << Report(result);
  }
}

// ---------------------------------------------------------------------------
// P4 datapath under packet loss: regressions for the engine's recycle and
// re-fetch paths (DESIGN.md §12 notes 2-4).
// ---------------------------------------------------------------------------

// 4 KiB records are 4 packets at the 1 KiB path MTU, so every transfer is a
// multi-packet conversion stream.
ChaosOptions MultiPacketShape(std::uint64_t seed, double write_ratio) {
  ChaosOptions opt = P4ChaosFaultsShape(seed);
  opt.workload.len = 4096;
  opt.workload.write_ratio = write_ratio;
  SetPacketFaults(opt, 0.0001);
  return opt;
}

// A read that completed while an earlier read still held the in-order
// completion queue used to accept a late duplicate of its pool-read
// response: the chunk started a second conversion after the first one was
// ACKed and popped, and the next Go-Back-N walk found the op retired and
// aborted the process.
TEST(P4LossTest, ChunksOfCompletedOpsAreIgnored) {
  for (const std::uint64_t seed : {700000, 700001}) {
    COWBIRD_SCOPED_SEED(seed);
    const ChaosResult result = RunChaos(MultiPacketShape(seed, 0.0));
    EXPECT_TRUE(result.Passed()) << Report(result);
  }
}

// An ACK that covers a write the rewind left partly re-streamed completes
// it; the write QP's unemitted count must drop with it, or the QP stops
// admitting conversions and every later write is orphaned for good (seed
// 700014 never retired 64 writes). Seed 700006 stalls the same way once
// pool writes are held in order without this accounting.
TEST(P4LossTest, AckedPartialStreamsLeaveTheQpEmittable) {
  for (const std::uint64_t seed : {700006, 700014}) {
    COWBIRD_SCOPED_SEED(seed);
    const ChaosResult result = RunChaos(MultiPacketShape(seed, 1.0));
    EXPECT_TRUE(result.Passed()) << Report(result);
  }
}

// A write whose first payload chunk found its server's write QP busy is
// orphaned and re-fetched on the next probe. A later write of the same
// thread used to take the next PSN span meanwhile, and the server applies
// writes in PSN order: on seed 306004 thread 2's version 7 took PSN 10388
// and the re-fetched version 6 took 10393, so the slot went back to
// version 6. The crash seeds failed the same way.
TEST(P4LossTest, OneThreadsPoolWritesLandInSequenceOrder) {
  ChaosOptions opt = P4ChaosFaultsShape(306004);
  SetPacketFaults(opt, 0.0005);
  const ChaosResult result = RunChaos(opt);
  EXPECT_TRUE(result.Passed()) << Report(result);
  for (const std::uint64_t seed : {32083, 32119}) {
    COWBIRD_SCOPED_SEED(seed);
    opt.seed = seed;
    opt.plan.crashes = {Millis(10)};
    const ChaosResult crashed = RunChaos(opt);
    EXPECT_EQ(crashed.crashes_executed, 1u);
    EXPECT_TRUE(crashed.Passed()) << Report(crashed);
  }
}

class ChaosEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ChaosEngineTest, LinearizesUnderMixedPacketFaults) {
  const std::uint64_t base = TestSeed(1);
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    COWBIRD_SCOPED_SEED(seed);
    ChaosOptions opt = BaseOptions(GetParam(), seed);
    opt.plan = FaultPlan::FromSeed(seed, /*crash_count=*/0);
    const ChaosResult result = RunChaos(opt);
    EXPECT_TRUE(result.violations.empty()) << Report(result);
    EXPECT_TRUE(result.counters_exact);
    EXPECT_GT(result.reads_checked, 50u);
  }
}

TEST_P(ChaosEngineTest, LinearizesAcrossEngineCrashes) {
  const std::uint64_t base = TestSeed(21);
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    COWBIRD_SCOPED_SEED(seed);
    ChaosOptions opt = BaseOptions(GetParam(), seed);
    opt.plan = FaultPlan::FromSeed(seed, /*crash_count=*/2);
    const ChaosResult result = RunChaos(opt);
    EXPECT_GE(result.crashes_executed, 1u);
    EXPECT_TRUE(result.violations.empty()) << Report(result);
    EXPECT_GT(result.reads_checked, 50u);
  }
}

// The canary the whole harness exists for: disable the read-after-write
// fence (a real consistency bug) and require the checker to notice. A
// harness that cannot catch a planted bug proves nothing when it passes.
TEST_P(ChaosEngineTest, BrokenFenceIsCaught) {
  const std::uint64_t base = TestSeed(5);
  std::uint64_t caught = 0;
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    COWBIRD_SCOPED_SEED(seed);
    ChaosOptions opt = BaseOptions(GetParam(), seed);
    opt.break_fence = true;
    opt.workload.slots_per_thread = 1;  // hot slot: constant RAW conflicts
    opt.workload.write_ratio = 0.5;
    const ChaosResult result = RunChaos(opt);
    for (const Violation& v : result.violations) {
      if (v.kind == "stale-read") ++caught;
    }
  }
  EXPECT_GT(caught, 0u)
      << "checker failed to catch the deliberately broken fence";
}

INSTANTIATE_TEST_SUITE_P(Engines, ChaosEngineTest,
                         ::testing::Values(EngineKind::kSpot,
                                           EngineKind::kP4),
                         [](const ::testing::TestParamInfo<EngineKind>&
                                param_info) {
                           return std::string(EngineKindName(param_info.param));
                         });

}  // namespace
}  // namespace cowbird::chaos
