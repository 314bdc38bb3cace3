#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "workload/generator.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace cowbird::workload {
namespace {

TEST(Zipfian, RankZeroIsHottest) {
  Rng rng(1);
  ZipfianGenerator gen(1000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.Next(rng)]++;
  // Rank 0 must dominate and be well above uniform (100 per key).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 10000);
  // Long tail exists.
  EXPECT_GT(counts.size(), 400u);
}

TEST(Zipfian, ScrambledPreservesSkewButScatters) {
  Rng rng(2);
  ZipfianGenerator gen(100000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) counts[gen.NextScrambled(rng)]++;
  int max_count = 0;
  std::uint64_t hottest = 0;
  for (auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      hottest = k;
    }
  }
  // Hot key exists but is not key 0 (scrambling scatters ranks).
  EXPECT_GT(max_count, 2000);
  EXPECT_NE(hottest, 0u);
}

TEST(Zipfian, StaysInRange) {
  Rng rng(3);
  ZipfianGenerator gen(50, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next(rng), 50u);
}

// ---------------------------------------------------------------------------
// The microbenchmark driver: these are miniature versions of Figures 1/8 and
// assert the *ordering* the paper reports.
// ---------------------------------------------------------------------------

HashWorkloadConfig Quick(Paradigm p, int threads, Bytes record) {
  HashWorkloadConfig c;
  c.paradigm = p;
  c.threads = threads;
  c.record_size = record;
  c.records = 100'000;
  c.warmup = Micros(150);
  c.measure = Micros(600);
  return c;
}

TEST(HashWorkload, ParadigmOrderingMatchesPaper) {
  const double local = RunHashWorkload(Quick(Paradigm::kLocalMemory, 1, 256)).mops;
  const double cowbird = RunHashWorkload(Quick(Paradigm::kCowbird, 1, 256)).mops;
  const double nobatch =
      RunHashWorkload(Quick(Paradigm::kCowbirdNoBatch, 1, 256)).mops;
  const double async =
      RunHashWorkload(Quick(Paradigm::kOneSidedAsync, 1, 256)).mops;
  const double sync1 =
      RunHashWorkload(Quick(Paradigm::kOneSidedSync, 1, 256)).mops;
  const double sync2 =
      RunHashWorkload(Quick(Paradigm::kTwoSidedSync, 1, 256)).mops;

  // Figure 1 ordering: local ≥ cowbird > nobatch ≥ async >> sync one-sided
  // ≥ sync two-sided.
  EXPECT_GT(local, cowbird * 0.99);
  EXPECT_GT(cowbird, async);
  EXPECT_GT(nobatch, async * 0.8);
  // Paper Figure 1 gap is ~4.7x; our fabric calibration lands 3.5-4.5x
  // depending on record size (see EXPERIMENTS.md).
  EXPECT_GT(async, sync1 * 3.5);
  EXPECT_GT(sync1, sync2 * 0.9);
  // Cowbird close to local memory (paper: within 11.4%).
  EXPECT_GT(cowbird, local * 0.8);
  EXPECT_GT(sync1, 0.01);
}

TEST(HashWorkload, SyncLatencyBoundThroughput) {
  // One-sided sync: per-op time ≈ post + RTT + polls. At ~4 µs that is
  // ~0.25 MOPS per thread; assert the right ballpark (0.1–0.5).
  const auto r = RunHashWorkload(Quick(Paradigm::kOneSidedSync, 1, 64));
  EXPECT_GT(r.mops, 0.08);
  EXPECT_LT(r.mops, 0.6);
  // Sync RDMA spends almost all its time in communication (Figure 10).
  EXPECT_GT(r.comm_ratio, 0.7);
}

TEST(HashWorkload, CowbirdCommunicationRatioIsFarBelowRdma) {
  // On the raw microbenchmark (tiny per-op application work) Cowbird's
  // communication share is higher than the <20% the paper reports for
  // FASTER (Figure 10), but it must still be far below sync RDMA's 80%+.
  const auto cow = RunHashWorkload(Quick(Paradigm::kCowbird, 2, 64));
  const auto rdma = RunHashWorkload(Quick(Paradigm::kOneSidedSync, 2, 64));
  EXPECT_LT(cow.comm_ratio, 0.65);
  EXPECT_GT(rdma.comm_ratio, 0.75);
  EXPECT_LT(cow.comm_ratio, rdma.comm_ratio * 0.8);
  EXPECT_GT(cow.mops, 1.0);
}

TEST(HashWorkload, ThroughputScalesWithThreads) {
  const double one = RunHashWorkload(Quick(Paradigm::kCowbird, 1, 64)).mops;
  const double four = RunHashWorkload(Quick(Paradigm::kCowbird, 4, 64)).mops;
  EXPECT_GT(four, one * 2.0);
}

TEST(HashWorkload, LargeRecordsHitBandwidthCeiling) {
  // 512-byte records with many threads: the 100 Gbps link caps throughput
  // near 100e9/8/512 ≈ 24 MOPS; Cowbird should approach but not exceed it.
  auto c = Quick(Paradigm::kCowbird, 16, 512);
  c.measure = Millis(1);
  const auto r = RunHashWorkload(c);
  EXPECT_LT(r.mops, 26.0);
  EXPECT_GT(r.mops, 10.0);
}

TEST(HashWorkload, AifmIsFarBelowCowbird) {
  const double aifm = RunHashWorkload(Quick(Paradigm::kAifm, 4, 8)).mops;
  const double cowbird = RunHashWorkload(Quick(Paradigm::kCowbird, 4, 8)).mops;
  EXPECT_GT(cowbird, aifm * 5);  // order-of-magnitude class gap (Fig 12)
}

TEST(HashWorkload, SpotAgentFitsInOneCore) {
  auto c = Quick(Paradigm::kCowbird, 4, 64);
  const auto r = RunHashWorkload(c);
  // Processor-sharing accounting can slightly exceed 1.0 when coroutine
  // work items overlap on the single agent core.
  EXPECT_LE(r.offload_core_util, 1.3);
  EXPECT_GT(r.offload_core_util, 0.0);
}

// The rack is the hash workload's closed loop fanned out: one client on one
// memory server, every op remote, retires exactly the hash workload's ops
// and dispatches exactly its events, on either engine.
TEST(HashWorkload, OneClientRackRetiresTheSameOpsAndEvents) {
  for (const Paradigm paradigm : {Paradigm::kCowbird, Paradigm::kCowbirdP4}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(ParadigmName(paradigm)) + " threads=" +
                   std::to_string(threads));
      HashWorkloadConfig hash;
      hash.paradigm = paradigm;
      hash.threads = threads;
      hash.record_size = 256;
      hash.records = 200'000;
      hash.local_fraction = 0;
      hash.window = 32;
      hash.warmup = Micros(100);
      hash.measure = Micros(500);
      hash.seed = 7;
      ScaleWorkloadConfig rack;
      rack.paradigm = paradigm;
      rack.clients = 1;
      rack.memory_servers = 1;
      rack.threads_per_client = threads;
      rack.record_size = hash.record_size;
      rack.records = hash.records;
      rack.window = hash.window;
      rack.warmup = hash.warmup;
      rack.measure = hash.measure;
      rack.seed = hash.seed;

      const WorkloadResult h = RunHashWorkload(hash);
      const ScaleWorkloadResult r = RunScaleWorkload(rack);
      EXPECT_GT(h.ops, 0u);
      EXPECT_EQ(r.ops, h.ops);
      EXPECT_EQ(r.sim_events, h.sim_events);
    }
  }
}

TEST(LatencyProbe, SyncAndCowbirdUnbatchedAreClose) {
  LatencyProbeConfig sync;
  sync.paradigm = Paradigm::kOneSidedSync;
  sync.record_size = 256;
  sync.samples = 300;
  const auto rs = RunLatencyProbe(sync);

  LatencyProbeConfig nb;
  nb.paradigm = Paradigm::kCowbirdNoBatch;
  nb.record_size = 256;
  nb.samples = 300;
  const auto rn = RunLatencyProbe(nb);

  // Figure 13: Cowbird without batching is similar to sync one-sided RDMA
  // (2 extra RTTs + probe interval, minus post/poll savings).
  EXPECT_GT(rs.median_us, 1.0);
  EXPECT_LT(rn.median_us, rs.median_us * 4.0);
  EXPECT_GT(rn.median_us, rs.median_us * 0.8);
  EXPECT_GE(rn.p99_us, rn.median_us);
}

}  // namespace
}  // namespace cowbird::workload
