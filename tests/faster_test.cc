#include <gtest/gtest.h>

#include "faster/devices_rdma.h"
#include "faster/idevice.h"
#include "faster/store.h"
#include "faster/ycsb.h"
#include "workload/cluster.h"

namespace cowbird::faster {
namespace {

constexpr std::uint64_t kDeviceBase = 0x3000'0000;
constexpr std::uint64_t kDest = 0x8000'0000;

class StoreTest : public ::testing::Test {
 public:
  StoreTest() {
    FasterStore::Config sc;
    sc.index_buckets = 1 << 12;
    sc.memory_budget = KiB(64);
    store = std::make_unique<FasterStore>(cluster.client(0).mem, sc);
    device =
        std::make_unique<LocalMemoryDevice>(cluster.client(0).mem, kDeviceBase);
    thread = std::make_unique<sim::SimThread>(*cluster.client(0).machine, "t");
  }

  std::vector<std::uint8_t> Value(std::uint64_t key, std::uint32_t len) {
    std::vector<std::uint8_t> v(len, static_cast<std::uint8_t>(key));
    for (int i = 0; i < 8; ++i) v[i] = static_cast<std::uint8_t>(key >> (8 * i));
    return v;
  }

  workload::Cluster cluster{workload::ClusterSpec{}};
  std::unique_ptr<FasterStore> store;
  std::unique_ptr<IDevice> device;
  std::unique_ptr<sim::SimThread> thread;
};

TEST_F(StoreTest, UpsertThenReadInMemory) {
  bool ok = false;
  cluster.sim.Spawn([](StoreTest& t, bool& out) -> sim::Task<void> {
    co_await t.store->Upsert(*t.thread, *t.device, 42, t.Value(42, 64));
    auto status = co_await t.store->Read(*t.thread, *t.device, 42, kDest,
                                         [] {});
    out = status == FasterStore::ReadStatus::kLocal;
  }(*this, ok));
  cluster.sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.client(0).mem.ReadValue<std::uint64_t>(kDest), 42u);
  EXPECT_EQ(cluster.client(0).mem.ReadValue<std::uint64_t>(kDest + 16), 42u);
}

TEST_F(StoreTest, MissingKeyNotFound) {
  auto status = FasterStore::ReadStatus::kLocal;
  cluster.sim.Spawn([](StoreTest& t,
                       FasterStore::ReadStatus& out) -> sim::Task<void> {
    out = co_await t.store->Read(*t.thread, *t.device, 999, kDest, [] {});
  }(*this, status));
  cluster.sim.Run();
  EXPECT_EQ(status, FasterStore::ReadStatus::kNotFound);
}

TEST_F(StoreTest, UpdateSupersedesOldValue) {
  cluster.sim.Spawn([](StoreTest& t) -> sim::Task<void> {
    co_await t.store->Upsert(*t.thread, *t.device, 7, t.Value(7, 64));
    auto v2 = t.Value(7, 64);
    v2[63] = 0xEE;
    co_await t.store->Upsert(*t.thread, *t.device, 7, v2);
    (void)co_await t.store->Read(*t.thread, *t.device, 7, kDest, [] {});
  }(*this));
  cluster.sim.Run();
  std::vector<std::uint8_t> out(80);
  cluster.client(0).mem.Read(kDest, out);
  EXPECT_EQ(out[16 + 63], 0xEE);
}

TEST_F(StoreTest, SpillsWhenOverBudget) {
  // 64 KiB budget, 80-byte records → spills begin after ~800 upserts.
  cluster.sim.Spawn([](StoreTest& t) -> sim::Task<void> {
    for (std::uint64_t k = 0; k < 3000; ++k) {
      co_await t.store->Upsert(*t.thread, *t.device, k, t.Value(k, 64));
    }
  }(*this));
  cluster.sim.Run();
  EXPECT_GT(store->spills(), 0u);
  EXPECT_LE(store->InMemoryBytes(), KiB(64));
  EXPECT_EQ(store->size(), 3000u);
}

TEST_F(StoreTest, SpilledRecordsReadBackThroughDevice) {
  int pending_done = 0;
  cluster.sim.Spawn([](StoreTest& t, int& done_count) -> sim::Task<void> {
    for (std::uint64_t k = 0; k < 3000; ++k) {
      co_await t.store->Upsert(*t.thread, *t.device, k, t.Value(k, 64));
    }
    // Key 0 was evicted long ago; it must come back via the device.
    auto status = co_await t.store->Read(
        *t.thread, *t.device, 0, kDest, [&done_count] { ++done_count; });
    // LocalMemoryDevice completes inline.
    EXPECT_EQ(status, FasterStore::ReadStatus::kPending);
  }(*this, pending_done));
  cluster.sim.Run();
  EXPECT_EQ(pending_done, 1);
  EXPECT_EQ(cluster.client(0).mem.ReadValue<std::uint64_t>(kDest), 0u);
  // Value embeds the key (0) in its first 8 bytes.
  EXPECT_EQ(cluster.client(0).mem.ReadValue<std::uint64_t>(kDest + 16), 0u);
}

TEST_F(StoreTest, RecordSizeRounding) {
  FasterStore::Config sc;
  FasterStore s(cluster.client(0).mem, sc);
  EXPECT_EQ(s.RecordSize(64), 80u);
  EXPECT_EQ(s.RecordSize(8), 24u);
  EXPECT_EQ(s.RecordSize(1), 24u);  // rounded to 8
  EXPECT_EQ(s.RecordSize(512), 528u);
}

// ---------------------------------------------------------------------------
// YCSB end-to-end (miniature Figures 9/10/11)
// ---------------------------------------------------------------------------

YcsbConfig QuickYcsb(Backend b, int threads) {
  YcsbConfig c;
  c.backend = b;
  c.threads = threads;
  c.records = 20'000;
  c.value_size = 64;
  c.memory_fraction = 0.2;
  c.warmup = Micros(200);
  c.measure = Millis(1);
  return c;
}

TEST(Ycsb, AllBackendsVerifyCleanly) {
  for (Backend b : {Backend::kLocal, Backend::kSsd, Backend::kOneSidedSync,
                    Backend::kOneSidedAsync, Backend::kCowbirdSpot,
                    Backend::kCowbirdP4, Backend::kRedy}) {
    const auto r = RunYcsb(QuickYcsb(b, 2));
    EXPECT_EQ(r.verify_failures, 0u) << BackendName(b);
    EXPECT_GT(r.ops, 100u) << BackendName(b);
  }
}

TEST(Ycsb, StorageLayerIsExercised) {
  const auto r = RunYcsb(QuickYcsb(Backend::kCowbirdSpot, 2));
  // The configuration must push a large share of reads to the device
  // (the paper stresses the storage layer).
  EXPECT_GT(r.remote_read_fraction, 0.3);
  EXPECT_GT(r.updates, 0u);
}

TEST(Ycsb, BackendOrderingMatchesFigure9) {
  const double local = RunYcsb(QuickYcsb(Backend::kLocal, 2)).mops;
  const double cowbird = RunYcsb(QuickYcsb(Backend::kCowbirdSpot, 2)).mops;
  const double async = RunYcsb(QuickYcsb(Backend::kOneSidedAsync, 2)).mops;
  const double sync = RunYcsb(QuickYcsb(Backend::kOneSidedSync, 2)).mops;
  const double ssd = RunYcsb(QuickYcsb(Backend::kSsd, 2)).mops;

  // Figure 9 ordering: local ≥ cowbird > async > sync > ssd, with remote
  // memory at least 2.3x faster than SSD.
  EXPECT_GE(local * 1.05, cowbird);
  EXPECT_GT(cowbird, async);
  EXPECT_GT(async, sync);
  EXPECT_GT(sync, ssd * 2.3);
  // Cowbird close to local memory (paper: within 8%; we allow 20% at this
  // miniature scale).
  EXPECT_GT(cowbird, local * 0.7);
}

TEST(Ycsb, CommunicationRatioOrdering) {
  const auto sync = RunYcsb(QuickYcsb(Backend::kOneSidedSync, 2));
  const auto cowbird = RunYcsb(QuickYcsb(Backend::kCowbirdSpot, 2));
  // Figure 10: sync RDMA > 80%% of time in communication; Cowbird < 20%.
  EXPECT_GT(sync.comm_ratio, 0.6);
  EXPECT_LT(cowbird.comm_ratio, 0.25);
}

TEST(Ycsb, P4AndSpotEnginesPerformSimilarly) {
  // Figure 9: "these two approaches achieve similar performance across
  // different workloads and scalability settings."
  const double spot = RunYcsb(QuickYcsb(Backend::kCowbirdSpot, 4)).mops;
  const double p4 = RunYcsb(QuickYcsb(Backend::kCowbirdP4, 4)).mops;
  EXPECT_GT(p4, spot * 0.6);
  EXPECT_LT(p4, spot * 1.7);
}

TEST(Ycsb, RedyLosesToCowbirdAtHighThreadCounts) {
  // Figure 11: with 12 app threads on 16 cores, Redy's 12 pinned I/O
  // threads oversubscribe the machine; Cowbird keeps scaling.
  const double redy = RunYcsb(QuickYcsb(Backend::kRedy, 12)).mops;
  const double cowbird = RunYcsb(QuickYcsb(Backend::kCowbirdSpot, 12)).mops;
  EXPECT_GT(cowbird, redy * 1.2);
}

}  // namespace
}  // namespace cowbird::faster
