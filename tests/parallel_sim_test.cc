// The determinism contract of run-level parallelism (sim/parallel.h):
// ParallelFor runs every index exactly once for any job count, and a sweep
// of independent simulations produces the same per-index outcomes no matter
// how many workers ran it.
//
// Every simulated run owns its event loop, fabric, RNG streams and telemetry,
// so the contract holds for each harness that sweeps run across workers: the
// hash workload, the 16-node rack and the P4 fan-in, and full chaos runs with
// fault plans, engine crashes, live migration and incast congestion. A run's
// outcome is a function of its own options alone — not of the worker count,
// nor of which other runs share the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "sim/parallel.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace cowbird {
namespace {

// ---------------------------------------------------------------- ParallelFor

TEST(ParallelForTest, EveryIndexExactlyOnceForAnyJobCount) {
  for (int jobs : {1, 2, 8, 64}) {
    constexpr int kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    sim::ParallelFor(jobs, kN,
                     [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " with jobs=" << jobs;
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  sim::ParallelFor(4, 0, [&](int) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, HardwareJobsIsPositive) {
  EXPECT_GE(sim::MaxParallelism(), 1);
}

// Each index runs a private deterministic simulation; the per-index results
// must not depend on how many workers executed the sweep.
TEST(ParallelForTest, SweepOutcomesIndependentOfJobCount) {
  auto sweep = [](int jobs) {
    std::vector<std::uint64_t> ops(4, 0);
    sim::ParallelFor(jobs, 4, [&](int i) {
      workload::HashWorkloadConfig c;
      c.paradigm = workload::Paradigm::kCowbird;
      c.threads = 2;
      c.record_size = 64;
      c.records = 50'000;
      c.local_fraction = 0;
      c.warmup = Micros(100);
      c.measure = Micros(400);
      c.seed = static_cast<std::uint64_t>(i) + 1;
      ops[static_cast<std::size_t>(i)] = workload::RunHashWorkload(c).ops;
    });
    return ops;
  };
  const std::vector<std::uint64_t> serial = sweep(1);
  for (std::uint64_t o : serial) EXPECT_GT(o, 0u);
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

// Runs `run` on every config as one sweep split across `jobs` workers and
// returns the results in config order.
template <typename Config, typename Run>
auto SplitSweep(int jobs, const std::vector<Config>& configs, Run run) {
  std::vector<decltype(run(configs.front()))> results(configs.size());
  sim::ParallelFor(jobs, static_cast<int>(configs.size()), [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    results[k] = run(configs[k]);
  });
  return results;
}

// ------------------------------------------------------ rack fan-in sweeps

using workload::Paradigm;
using workload::ScaleWorkloadConfig;
using workload::ScaleWorkloadResult;

// Sweep points differ in window depth, not seed: the outcome compared here
// does not depend on which keys the seed draws, so a seed sweep would run
// one point several times.
ScaleWorkloadConfig RackBase(Paradigm paradigm, int window) {
  ScaleWorkloadConfig c;  // 12 clients + 2 memory servers: the 16-node rack
  c.paradigm = paradigm;
  c.records = 20'000;
  c.window = window;
  c.warmup = Micros(100);
  c.measure = Micros(400);
  return c;
}

bool SameOutcome(const ScaleWorkloadResult& a, const ScaleWorkloadResult& b) {
  return a.client_ops == b.client_ops && a.ops == b.ops &&
         a.sim_events == b.sim_events && a.elapsed == b.elapsed;
}

std::vector<ScaleWorkloadResult> RackSweep(
    int jobs, const std::vector<ScaleWorkloadConfig>& configs) {
  return SplitSweep(jobs, configs, workload::RunScaleWorkload);
}

TEST(ScaleSimTest, SixteenNodeSplitBitIdenticalAcrossWorkerCounts) {
  std::vector<ScaleWorkloadConfig> configs;
  for (int window : {8, 16, 32}) {
    configs.push_back(RackBase(Paradigm::kCowbird, window));
  }
  const std::vector<ScaleWorkloadResult> one = RackSweep(1, configs);
  for (const ScaleWorkloadResult& r : one) {
    ASSERT_EQ(r.client_ops.size(), 12u);
    for (std::uint64_t ops : r.client_ops) EXPECT_GT(ops, 0u);
  }
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_NE(one[i].ops, one[i - 1].ops);
  }
  for (int workers : {2, 3}) {
    const std::vector<ScaleWorkloadResult> many = RackSweep(workers, configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_TRUE(SameOutcome(one[i], many[i]))
          << "workers=" << workers << " window=" << configs[i].window;
    }
  }
}

TEST(ScaleSimTest, P4FanInSplitBitIdenticalAcrossWorkerCounts) {
  // Smaller fabric (4 clients + 2 servers = 8 nodes) keeps the P4 variant
  // cheap; the determinism claim is the same.
  std::vector<ScaleWorkloadConfig> configs;
  for (int window : {8, 16, 32, 64}) {
    ScaleWorkloadConfig c = RackBase(Paradigm::kCowbirdP4, window);
    c.clients = 4;
    configs.push_back(c);
  }
  const std::vector<ScaleWorkloadResult> one = RackSweep(1, configs);
  for (const ScaleWorkloadResult& r : one) {
    ASSERT_EQ(r.client_ops.size(), 4u);
    for (std::uint64_t ops : r.client_ops) EXPECT_GT(ops, 0u);
  }
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_NE(one[i].ops, one[i - 1].ops);
  }
  for (int workers : {2, 8}) {
    const std::vector<ScaleWorkloadResult> many = RackSweep(workers, configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_TRUE(SameOutcome(one[i], many[i]))
          << "workers=" << workers << " window=" << configs[i].window;
    }
  }
}

// ------------------------------------------------------------ chaos sweeps

using chaos::ChaosOptions;
using chaos::ChaosResult;
using chaos::EngineKind;

bool SameChaosOutcome(const ChaosResult& a, const ChaosResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const chaos::OpRecord& x = a.history[i];
    const chaos::OpRecord& y = b.history[i];
    if (x.id != y.id || x.thread != y.thread || x.is_write != y.is_write ||
        x.offset != y.offset || x.length != y.length ||
        x.invoke != y.invoke || x.complete != y.complete ||
        x.digest != y.digest) {
      return false;
    }
  }
  return a.reads_checked == b.reads_checked &&
         a.writes_completed == b.writes_completed &&
         a.faults_injected == b.faults_injected &&
         a.decided_dropped == b.decided_dropped &&
         a.decided_duplicated == b.decided_duplicated &&
         a.decided_reordered == b.decided_reordered &&
         a.decided_delayed == b.decided_delayed &&
         a.crashes_executed == b.crashes_executed &&
         a.migrations_executed == b.migrations_executed &&
         a.migrate_bytes_copied == b.migrate_bytes_copied &&
         a.migrate_dirty_marks == b.migrate_dirty_marks &&
         a.ecn_marked == b.ecn_marked && a.pfc_pauses == b.pfc_pauses &&
         a.link_pauses == b.link_pauses && a.cnps == b.cnps;
}

std::vector<ChaosResult> ChaosSweep(int jobs,
                                    const std::vector<ChaosOptions>& runs) {
  return SplitSweep(jobs, runs,
                    [](const ChaosOptions& o) { return chaos::RunChaos(o); });
}

std::vector<ChaosOptions> BothEngines(const std::vector<std::uint64_t>& seeds) {
  std::vector<ChaosOptions> runs;
  for (EngineKind engine : {EngineKind::kSpot, EngineKind::kP4}) {
    for (std::uint64_t seed : seeds) {
      runs.push_back(chaos::SweepOptions(engine, seed));
    }
  }
  return runs;
}

std::string RunName(const ChaosOptions& o) {
  return std::string(chaos::EngineKindName(o.engine)) + " seed " +
         std::to_string(o.seed);
}

TEST(ChaosSplitTest, BitIdenticalAcrossWorkerCountsWithFaultsAndCrashes) {
  // Seed 3 schedules an engine crash (odd seeds do); seed 4 is crash-free.
  const std::vector<ChaosOptions> runs = BothEngines({3, 4});
  const std::vector<ChaosResult> one = ChaosSweep(1, runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(one[i].Passed()) << RunName(runs[i]);
    EXPECT_GT(one[i].faults_injected, 0u) << RunName(runs[i]);
    if (runs[i].seed % 2 == 1) {
      EXPECT_GT(one[i].crashes_executed, 0u) << RunName(runs[i]);
    }
  }
  for (int workers : {2, 4}) {
    const std::vector<ChaosResult> many = ChaosSweep(workers, runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(SameChaosOutcome(one[i], many[i]))
          << RunName(runs[i]) << " workers " << workers;
    }
  }
}

TEST(ChaosSplitTest, SerialAndSplitBothPassInvariants) {
  // Serial: each run straight on the calling thread, no pool. Split: the
  // same runs as one sweep across workers. Both uphold every invariant (no
  // violations, exact link counter audit) and agree op for op.
  const std::vector<ChaosOptions> runs = BothEngines({1, 2});
  const std::vector<ChaosResult> split = ChaosSweep(4, runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ChaosResult serial = chaos::RunChaos(runs[i]);
    EXPECT_TRUE(serial.Passed()) << RunName(runs[i]);
    EXPECT_TRUE(split[i].Passed()) << RunName(runs[i]);
    EXPECT_TRUE(SameChaosOutcome(serial, split[i])) << RunName(runs[i]);
  }
}

// The migration coordinator's ticks and the crash events are pre-scheduled
// on the run's own event loop, so the cutover lands on the same virtual-time
// edge however many workers share the sweep.
TEST(MigrationChaos, SplitBitIdenticalAcrossWorkerCounts) {
  std::vector<ChaosOptions> runs = BothEngines({2, 3});
  for (ChaosOptions& o : runs) o.plan.migrate = true;
  const std::vector<ChaosResult> one = ChaosSweep(1, runs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_TRUE(one[i].Passed()) << RunName(runs[i]);
    EXPECT_EQ(one[i].migrations_executed, 1u) << RunName(runs[i]);
    EXPECT_GT(one[i].migrate_bytes_copied, 0u) << RunName(runs[i]);
  }
  for (int workers : {2, 4}) {
    const std::vector<ChaosResult> many = ChaosSweep(workers, runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(SameChaosOutcome(one[i], many[i]))
          << RunName(runs[i]) << " workers " << workers;
    }
  }
}

// Incast runs as sweeps of two scopes — spot only, and both engines — each
// split across 2 and 4 workers. Every run matches its one-worker outcome
// whichever other runs share the sweep, and the shared-fabric congestion it
// models genuinely marked packets.
TEST(ChaosCongestion, IncastSplitBitIdenticalAcrossWorkersAndScopes) {
  std::vector<ChaosOptions> both_engines = BothEngines({4, 5});
  for (ChaosOptions& o : both_engines) {
    o.plan.congestion = chaos::CongestionScenario::kIncast;
  }
  // BothEngines lists the spot runs first.
  const std::vector<ChaosOptions> spot_only(both_engines.begin(),
                                            both_engines.begin() + 2);
  const std::vector<ChaosResult> one = ChaosSweep(1, both_engines);
  for (std::size_t i = 0; i < both_engines.size(); ++i) {
    EXPECT_TRUE(one[i].Passed()) << RunName(both_engines[i]);
    EXPECT_GT(one[i].ecn_marked, 0u) << RunName(both_engines[i]);
  }
  for (const std::vector<ChaosOptions>& runs : {spot_only, both_engines}) {
    for (int workers : {2, 4}) {
      const std::vector<ChaosResult> sweep = ChaosSweep(workers, runs);
      for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_TRUE(SameChaosOutcome(one[i], sweep[i]))
            << RunName(runs[i]) << " runs=" << runs.size()
            << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace cowbird
