// Failure-trace capture and replay: a violating run dumps a trace that
// re-executes deterministically to the identical violations — the repro
// workflow behind "re-run the seed the CI sweep printed".
#include <gtest/gtest.h>

#include <string>

#include "chaos/runner.h"
#include "chaos/trace.h"
#include "test_seed.h"

namespace cowbird::chaos {
namespace {

using cowbird::testing::TestSeed;

// A broken-fence run that provably violates (searched over a few seeds so
// one bad default doesn't starve the test of a failure to capture).
ChaosOptions ViolatingOptions(std::uint64_t base_seed) {
  for (std::uint64_t seed = base_seed; seed < base_seed + 5; ++seed) {
    ChaosOptions opt;
    opt.engine = EngineKind::kSpot;
    opt.seed = seed;
    opt.break_fence = true;
    opt.workload.threads = 2;
    opt.workload.slots_per_thread = 1;
    opt.workload.write_ratio = 0.5;
    opt.workload.ops_per_thread = 150;
    if (!RunChaos(opt).violations.empty()) return opt;
  }
  ADD_FAILURE() << "no violating seed found in [" << base_seed << ", "
                << base_seed + 5 << ")";
  return ChaosOptions{};
}

TEST(ChaosTraceTest, SerializeParseRoundTrips) {
  const std::uint64_t seed = TestSeed(3);
  COWBIRD_SCOPED_SEED(seed);
  ChaosOptions opt;
  opt.engine = EngineKind::kP4;
  opt.seed = seed;
  opt.workload.ops_per_thread = 60;
  opt.plan = FaultPlan::FromSeed(seed, 1);
  const ChaosResult result = RunChaos(opt);
  const ChaosTrace trace = MakeTrace(opt, result);

  const auto parsed = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options.engine, opt.engine);
  EXPECT_EQ(parsed->options.seed, opt.seed);
  EXPECT_EQ(parsed->options.break_fence, opt.break_fence);
  EXPECT_EQ(parsed->options.workload.Serialize(), opt.workload.Serialize());
  EXPECT_EQ(parsed->options.plan.Serialize(), opt.plan.Serialize());
  EXPECT_EQ(parsed->violations, trace.violations);
  ASSERT_EQ(parsed->history.size(), trace.history.size());
  for (std::size_t i = 0; i < trace.history.size(); ++i) {
    EXPECT_EQ(parsed->history[i].digest, trace.history[i].digest);
    EXPECT_EQ(parsed->history[i].invoke, trace.history[i].invoke);
    EXPECT_EQ(parsed->history[i].complete, trace.history[i].complete);
    EXPECT_EQ(parsed->history[i].is_write, trace.history[i].is_write);
  }
}

TEST(ChaosTraceTest, CapturedViolationReplaysDeterministically) {
  const std::uint64_t seed = TestSeed(5);
  COWBIRD_SCOPED_SEED(seed);
  const ChaosOptions opt = ViolatingOptions(seed);
  const ChaosResult original = RunChaos(opt);
  ASSERT_FALSE(original.violations.empty());
  const ChaosTrace trace = MakeTrace(opt, original);

  // Through the file format, exactly as the chaos_replay driver does.
  const std::string path =
      ::testing::TempDir() + "/cowbird-chaos-trace-test.txt";
  ASSERT_TRUE(WriteTraceFile(path, trace));
  const auto loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.has_value());

  const ReplayOutcome outcome = ReplayTrace(*loaded);
  EXPECT_TRUE(outcome.deterministic) << outcome.mismatch;
  EXPECT_EQ(outcome.result.violations.size(), original.violations.size());
}

TEST(ChaosTraceTest, CleanRunReplaysClean) {
  const std::uint64_t seed = TestSeed(7);
  COWBIRD_SCOPED_SEED(seed);
  ChaosOptions opt;
  opt.engine = EngineKind::kSpot;
  opt.seed = seed;
  opt.workload.ops_per_thread = 80;
  opt.plan = FaultPlan::FromSeed(seed, 0);
  const ChaosResult result = RunChaos(opt);
  ASSERT_TRUE(result.violations.empty());
  const ReplayOutcome outcome = ReplayTrace(MakeTrace(opt, result));
  EXPECT_TRUE(outcome.deterministic) << outcome.mismatch;
  EXPECT_TRUE(outcome.result.violations.empty());
}

// A trace of an unrun default run whose `name` line reads `content`
// instead: the file chaos_replay would be handed.
std::string TraceWithLine(const std::string& name, const std::string& content) {
  std::string text = SerializeTrace(MakeTrace(ChaosOptions{}, ChaosResult{}));
  const std::string line = "\n" + name + " ";
  const auto from = text.find(line) + line.size();
  text.replace(from, text.find('\n', from) - from, content);
  return text;
}

// The same for a default workload whose `key` reads `value`.
std::string TraceWithWorkloadValue(const std::string& key,
                                   const std::string& value) {
  std::string workload = WorkloadParams{}.Serialize();
  const auto at = workload.find(key + "=") + key.size() + 1;
  workload.replace(at, workload.find(' ', at) - at, value);
  return TraceWithLine("workload", workload);
}

bool Refused(const std::string& key, const std::string& value) {
  return !ParseTrace(TraceWithWorkloadValue(key, value)).has_value();
}

TEST(ChaosTraceTest, InRangeWorkloadValueParses) {
  const auto trace = ParseTrace(TraceWithWorkloadValue("slots", "1"));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->options.workload.slots_per_thread, 1);
}

// Workload values RunChaos cannot run are refused at parse, so
// chaos_replay reports "cannot parse" instead of aborting mid-replay.
TEST(ChaosTraceTest, ZeroThreadsAreRefused) {
  EXPECT_TRUE(Refused("threads", "0"));
}

TEST(ChaosTraceTest, NonNumericThreadsAreRefused) {
  EXPECT_TRUE(Refused("threads", "x"));
}

TEST(ChaosTraceTest, RecordLongerThanAPageIsRefused) {
  EXPECT_TRUE(Refused("len", "9000"));
}

TEST(ChaosTraceTest, OutstandingPastTheWindowIsRefused) {
  EXPECT_TRUE(Refused("outstanding", "999"));
}

TEST(ChaosTraceTest, ZeroSlotsAreRefused) {
  EXPECT_TRUE(Refused("slots", "0"));
}

bool PlanRefused(const std::string& plan) {
  return !ParseTrace(TraceWithLine("plan", plan)).has_value();
}

TEST(ChaosTraceTest, PlanWithEveryKeyParses) {
  EXPECT_FALSE(PlanRefused(
      "drop=0.01 dup=0.02 reorder=1e-05 delay=0.05 delay_min=0 "
      "delay_max=0 reorder_delay=0 max_dup=16 partitions=0-0,10-20 "
      "crashes=0,300000 congestion=pause_storm migrate=1 migrate_start=0"));
}

// Plans RunChaos cannot run are refused at parse, so chaos_replay reports
// "cannot parse" instead of aborting or running a different plan.
TEST(ChaosTraceTest, NegativeCrashTimeIsRefused) {
  EXPECT_TRUE(PlanRefused("crashes=-5"));
}

TEST(ChaosTraceTest, NonNumericCrashTimeIsRefused) {
  EXPECT_TRUE(PlanRefused("crashes=abc"));
}

TEST(ChaosTraceTest, NegativeMigrateStartIsRefused) {
  EXPECT_TRUE(PlanRefused("migrate=1 migrate_start=-100"));
}

TEST(ChaosTraceTest, RateWithTrailingCharactersIsRefused) {
  EXPECT_TRUE(PlanRefused("drop=0.01x"));
}

TEST(ChaosTraceTest, RateAboveOneIsRefused) {
  EXPECT_TRUE(PlanRefused("drop=1.5"));
}

TEST(ChaosTraceTest, NegativeRateIsRefused) {
  EXPECT_TRUE(PlanRefused("dup=-0.1"));
}

TEST(ChaosTraceTest, RatesSummingPastOneAreRefused) {
  EXPECT_TRUE(PlanRefused("drop=0.6 delay=0.6"));
}

TEST(ChaosTraceTest, DelayMinAboveDelayMaxIsRefused) {
  EXPECT_TRUE(PlanRefused("delay_min=5000 delay_max=500"));
}

TEST(ChaosTraceTest, NegativeDelayBoundsAreRefused) {
  EXPECT_TRUE(PlanRefused("delay_min=-500 delay_max=-100"));
}

TEST(ChaosTraceTest, NegativeReorderDelayIsRefused) {
  EXPECT_TRUE(PlanRefused("reorder_delay=-1"));
}

TEST(ChaosTraceTest, ZeroMaxDuplicatesAreRefused) {
  EXPECT_TRUE(PlanRefused("max_dup=0"));
}

TEST(ChaosTraceTest, MaxDuplicatesPastSixteenAreRefused) {
  EXPECT_TRUE(PlanRefused("max_dup=17"));
}

TEST(ChaosTraceTest, PartitionEndingBeforeItStartsIsRefused) {
  EXPECT_TRUE(PlanRefused("partitions=2000-1000"));
}

TEST(ChaosTraceTest, NonNumericPartitionEndIsRefused) {
  EXPECT_TRUE(PlanRefused("partitions=1000-20x0"));
}

}  // namespace
}  // namespace cowbird::chaos
