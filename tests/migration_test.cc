// Live region migration under traffic (DESIGN.md §14): the chaos scenario
// that copies the region's hot range to a second memory server and cuts
// the translation entry over mid-run, checked by the same linearizability
// harness as the crash path — under packet faults, engine crashes and
// incast congestion.
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/runner.h"
#include "workload/scale_workload.h"

namespace cowbird {
namespace {

chaos::ChaosOptions MigratingOptions(chaos::EngineKind engine,
                                     std::uint64_t seed) {
  chaos::ChaosOptions opt = chaos::SweepOptions(engine, seed);
  opt.plan.migrate = true;
  return opt;
}

// Seeds 1-3 layer the migration onto seed-derived mixed fault plans: drop
// + duplicate + reorder + delay on every link, partitions, and an engine
// crash on the odd seeds — so the cutover races both packet loss and a
// crash-migration of the same instance.
TEST(MigrationChaos, CleanCutoverUnderFaultsAndCrashes) {
  for (chaos::EngineKind engine :
       {chaos::EngineKind::kSpot, chaos::EngineKind::kP4}) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2},
                               std::uint64_t{3}}) {
      const chaos::ChaosResult r =
          chaos::RunChaos(MigratingOptions(engine, seed));
      EXPECT_TRUE(r.Passed()) << chaos::EngineKindName(engine) << " seed "
                              << seed;
      EXPECT_EQ(r.migrations_executed, 1u)
          << chaos::EngineKindName(engine) << " seed " << seed;
      EXPECT_GT(r.migrate_bytes_copied, 0u);
      if (seed % 2 == 1) {
        EXPECT_GT(r.crashes_executed, 0u);
      }
    }
  }
}

// The copy stream must survive sharing the fabric with an incast: the
// congestion scenario layers finite switch queues + ECN + DCQCN over the
// same seeds.
TEST(MigrationChaos, CleanCutoverDuringIncastCongestion) {
  for (chaos::EngineKind engine :
       {chaos::EngineKind::kSpot, chaos::EngineKind::kP4}) {
    chaos::ChaosOptions opt = MigratingOptions(engine, 2);
    opt.plan.congestion = chaos::CongestionScenario::kIncast;
    const chaos::ChaosResult r = chaos::RunChaos(opt);
    EXPECT_TRUE(r.Passed()) << chaos::EngineKindName(engine);
    EXPECT_EQ(r.migrations_executed, 1u) << chaos::EngineKindName(engine);
  }
}

// A non-migrating plan serializes without the migrate keys — the byte
// contract that keeps pre-migration failure traces replayable — and a
// migrating one round-trips through the trace format.
TEST(MigrationPlan, FaultPlanSerializationRoundTrip) {
  chaos::FaultPlan plain;
  EXPECT_EQ(plain.Serialize().find("migrate"), std::string::npos);

  chaos::FaultPlan plan = chaos::FaultPlan::FromSeed(5, 1);
  plan.migrate = true;
  plan.migrate_start = Micros(123);
  const std::string line = plan.Serialize();
  EXPECT_NE(line.find("migrate=1"), std::string::npos) << line;
  const auto parsed = chaos::FaultPlan::Parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_TRUE(parsed->migrate);
  EXPECT_EQ(parsed->migrate_start, Micros(123));
  EXPECT_EQ(parsed->Serialize(), line);
}

// The 16-node fan-in acceptance: 12 clients over 2 memory servers, client
// 0's ClusterPool region live-rebalanced between them mid-run on both
// engines — the cutover completes, post-cutover throughput recovers to
// within 10% of the pre-migration rate, and the run keeps serving
// throughout (non-zero ops in every phase).
TEST(MigrationScale, FanInRebalanceRecoversSteadyState) {
  for (workload::Paradigm paradigm :
       {workload::Paradigm::kCowbird, workload::Paradigm::kCowbirdP4}) {
    workload::ScaleWorkloadConfig cfg;
    cfg.paradigm = paradigm;
    cfg.clients = 12;
    cfg.memory_servers = 2;
    cfg.records = 16'384;
    cfg.measure = Millis(2);
    cfg.migrate = true;
    cfg.migrate_start = Micros(400);
    const workload::ScaleWorkloadResult r =
        workload::RunScaleWorkload(cfg);
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_GE(r.migrate_bytes_copied, cfg.records * cfg.record_size);
    EXPECT_GT(r.mops_before, 0.0);
    EXPECT_GT(r.mops_during, 0.0);
    EXPECT_GE(r.mops_after, 0.9 * r.mops_before);
  }
}

}  // namespace
}  // namespace cowbird
