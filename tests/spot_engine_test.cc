// End-to-end integration: Cowbird client library + Cowbird-Spot offload
// engine over the simulated RoCE fabric. The compute node issues requests
// with local-memory writes only; the spot agent moves all data.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "spot/agent.h"
#include "spot/staging_arena.h"

namespace cowbird::spot {
namespace {

using core::RegionInfo;
using core::ReqId;
using testing::Pattern;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

class SpotEngineTest : public testing::ClusterTest {
 public:
  explicit SpotEngineTest(SpotAgent::Config agent_config = {},
                          int client_threads = 2) {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    client_ = &f_.AddClient(0, testing::SmallRings(client_threads));
    client_->RegisterRegion(pool);
    agent_ = &f_.AddSpotAgent(agent_config);
    f_.Attach(*agent_, *client_);
    agent_->Start();
  }

  SpotAgent* agent_ = nullptr;
};

TEST_F(SpotEngineTest, ReadFetchesPoolData) {
  const auto data = Pattern(256, 1);
  f_.memory(0).mem.Write(kPoolBase + 0x2000, data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](SpotEngineTest& t, std::vector<std::uint8_t>& out)
                   -> sim::Task<void> {
    out = co_await t.ReadAndWait(0, 0x2000, 256, kHeap);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(got, data);
  EXPECT_GT(agent_->probes_sent(), 0u);
  EXPECT_EQ(agent_->ops_completed(), 1u);
}

TEST_F(SpotEngineTest, WriteLandsInPool) {
  const auto data = Pattern(512, 2);
  f_.client(0).mem.Write(kHeap, data);
  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    co_await t.WriteAndWait(0, kHeap, 0x8000, 512);
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  std::vector<std::uint8_t> out(512);
  f_.memory(0).mem.Read(kPoolBase + 0x8000, out);
  EXPECT_EQ(out, data);
}

TEST_F(SpotEngineTest, ReadAfterWriteSeesNewData) {
  // Linearizability across types: a read issued after a write to an
  // overlapping range must return the written data.
  const auto old_data = Pattern(128, 3);
  const auto new_data = Pattern(128, 4);
  f_.memory(0).mem.Write(kPoolBase + 0x9000, old_data);
  f_.client(0).mem.Write(kHeap, new_data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](SpotEngineTest& t, const std::vector<std::uint8_t>& nd,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    // Issue write then read back-to-back WITHOUT waiting in between.
    auto w = co_await ctx.AsyncWrite(*t.app_thread_, kRegion, kHeap, 0x9000,
                                     128);
    EXPECT_TRUE(w.has_value());
    auto r = co_await ctx.AsyncRead(*t.app_thread_, kRegion, 0x9000,
                                    kHeap + 4096, 128);
    EXPECT_TRUE(r.has_value());
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *w);
    ctx.PollAdd(poll, *r);
    int done = 0;
    while (done < 2) {
      auto completed =
          co_await ctx.PollWait(*t.app_thread_, poll, 2, Millis(5));
      done += static_cast<int>(completed.size());
    }
    out.resize(128);
    t.f_.client(0).mem.Read(kHeap + 4096, out);
    (void)nd;
    t.f_.sim.Halt();
  }(*this, new_data, got));
  f_.sim.Run();
  EXPECT_EQ(got, new_data);
  EXPECT_GT(agent_->reads_stalled_by_writes(), 0u);
}

TEST_F(SpotEngineTest, NonOverlappingReadIsNotStalledByWrite) {
  const auto a = Pattern(128, 5);
  const auto b = Pattern(128, 6);
  f_.memory(0).mem.Write(kPoolBase + 0x20000, b);
  f_.client(0).mem.Write(kHeap, a);
  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    auto w = co_await ctx.AsyncWrite(*t.app_thread_, kRegion, kHeap, 0x9000,
                                     128);
    auto r = co_await ctx.AsyncRead(*t.app_thread_, kRegion, 0x20000,
                                    kHeap + 4096, 128);
    EXPECT_TRUE(w && r);
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *w);
    ctx.PollAdd(poll, *r);
    int done = 0;
    while (done < 2) {
      auto completed =
          co_await ctx.PollWait(*t.app_thread_, poll, 2, Millis(5));
      done += static_cast<int>(completed.size());
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  EXPECT_EQ(agent_->reads_stalled_by_writes(), 0u);
  std::vector<std::uint8_t> out(128);
  f_.client(0).mem.Read(kHeap + 4096, out);
  EXPECT_EQ(out, b);
}

TEST_F(SpotEngineTest, ManyReadsAreBatched) {
  // 64 consecutive 64-byte reads from one thread: with batch_size 16 the
  // agent should deliver them in far fewer than 64 RDMA writes.
  for (int i = 0; i < 64; ++i) {
    f_.memory(0).mem.Write(kPoolBase + 0x40000 + i * 64, Pattern(64, 100 + i));
  }
  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    const core::PollId poll = ctx.PollCreate();
    std::vector<ReqId> ids;
    for (int i = 0; i < 64; ++i) {
      std::optional<ReqId> id;
      while (!(id = co_await ctx.AsyncRead(*t.app_thread_, kRegion,
                                           0x40000 + i * 64,
                                           kHeap + i * 64, 64))) {
        co_await t.app_thread_->Idle(Micros(5));
      }
      ctx.PollAdd(poll, *id);
    }
    int done = 0;
    while (done < 64) {
      auto completed =
          co_await ctx.PollWait(*t.app_thread_, poll, 64, Millis(5));
      done += static_cast<int>(completed.size());
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> out(64);
    f_.client(0).mem.Read(kHeap + i * 64, out);
    EXPECT_EQ(out, Pattern(64, 100 + i)) << "read " << i;
  }
  EXPECT_LT(agent_->batches_flushed(), 24u);
  EXPECT_GE(agent_->batches_flushed(), 4u);
}

TEST_F(SpotEngineTest, TwoThreadsProgressIndependently) {
  const auto d0 = Pattern(256, 7);
  const auto d1 = Pattern(256, 8);
  f_.memory(0).mem.Write(kPoolBase + 0x50000, d0);
  f_.memory(0).mem.Write(kPoolBase + 0x60000, d1);
  int finished = 0;
  for (int t = 0; t < 2; ++t) {
    f_.sim.Spawn([](SpotEngineTest& test, int tid, int& count)
                     -> sim::Task<void> {
      auto out = co_await test.ReadAndWait(
          tid, tid == 0 ? 0x50000 : 0x60000, 256, kHeap + tid * 4096);
      (void)out;
      if (++count == 2) test.f_.sim.Halt();
    }(*this, t, finished));
  }
  f_.sim.Run();
  std::vector<std::uint8_t> out0(256), out1(256);
  f_.client(0).mem.Read(kHeap, out0);
  f_.client(0).mem.Read(kHeap + 4096, out1);
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
}

TEST_F(SpotEngineTest, LargeTransfersSpanningMtu) {
  const auto data = Pattern(5 * 1024, 9);
  f_.client(0).mem.Write(kHeap, data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](SpotEngineTest& t, std::vector<std::uint8_t>& out)
                   -> sim::Task<void> {
    co_await t.WriteAndWait(0, kHeap, 0x70000, 5 * 1024);
    out = co_await t.ReadAndWait(0, 0x70000, 5 * 1024, kHeap + 0x10000);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(got, data);
}

TEST_F(SpotEngineTest, SustainedMixedWorkloadWithRingWraps) {
  // Enough operations to wrap the 64-slot metadata ring and both data rings
  // several times, interleaving reads and writes.
  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    Rng rng(77);
    for (int i = 0; i < 300; ++i) {
      const std::uint32_t len =
          static_cast<std::uint32_t>(rng.Between(8, 2048));
      const std::uint64_t off = rng.Below(1024) * 2048;
      if (rng.Bernoulli(0.5)) {
        const auto data = Pattern(len, 5000 + i);
        t.f_.client(0).mem.Write(kHeap, data);
        co_await t.WriteAndWait(0, kHeap, off, len);
        auto got = co_await t.ReadAndWait(0, off, len, kHeap + 0x100000);
        EXPECT_EQ(got, data) << "iteration " << i;
      } else {
        auto got = co_await t.ReadAndWait(0, off, len, kHeap + 0x100000);
        std::vector<std::uint8_t> expect(len);
        t.f_.memory(0).mem.Read(kPoolBase + off, expect);
        EXPECT_EQ(got, expect) << "iteration " << i;
      }
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
}

// Packet loss between switch and both hosts: Cowbird recovers via the
// underlying Go-Back-N (Section 5.3 fault tolerance).
TEST_F(SpotEngineTest, SurvivesPacketLoss) {
  auto rng = std::make_shared<Rng>(99);
  auto loss = [rng](const net::Packet& p) {
    return rdma::LooksLikeRdma(p) && rng->Bernoulli(0.02);
  };
  f_.sw().EgressLink(f_.memory(0).nic.switch_port()).set_drop_filter(loss);
  f_.sw().EgressLink(f_.client(0).nic.switch_port()).set_drop_filter(loss);
  f_.sw().EgressLink(f_.spot().nic.switch_port()).set_drop_filter(loss);

  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      const auto data = Pattern(300, 9000 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 512, 300);
      auto got = co_await t.ReadAndWait(0, i * 512, 300, kHeap + 0x100000);
      EXPECT_EQ(got, data) << "iteration " << i;
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
}

class SpotEngineNoBatchTest : public SpotEngineTest {
 public:
  SpotEngineNoBatchTest()
      : SpotEngineTest(
            [] {
              SpotAgent::Config c;
              c.batch_size = 1;  // batching disabled
              return c;
            }(),
            1) {}
};

TEST_F(SpotEngineNoBatchTest, EveryReadFlushedIndividually) {
  for (int i = 0; i < 16; ++i) {
    f_.memory(0).mem.Write(kPoolBase + 0x40000 + i * 64, Pattern(64, 200 + i));
  }
  f_.sim.Spawn([](SpotEngineTest& t) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    const core::PollId poll = ctx.PollCreate();
    for (int i = 0; i < 16; ++i) {
      auto id = co_await ctx.AsyncRead(*t.app_thread_, kRegion,
                                       0x40000 + i * 64, kHeap + i * 64, 64);
      EXPECT_TRUE(id.has_value());
      ctx.PollAdd(poll, *id);
    }
    int done = 0;
    while (done < 16) {
      auto completed =
          co_await ctx.PollWait(*t.app_thread_, poll, 16, Millis(5));
      done += static_cast<int>(completed.size());
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  EXPECT_EQ(agent_->batches_flushed(), 16u);
  for (int i = 0; i < 16; ++i) {
    std::vector<std::uint8_t> out(64);
    f_.client(0).mem.Read(kHeap + i * 64, out);
    EXPECT_EQ(out, Pattern(64, 200 + i));
  }
}

// ---------------------------------------------------------------------------
// The staging arena.

constexpr std::uint64_t kArenaBase = 0x4000'0000;

TEST(StagingArena, ReleasedBlockIsHandedOutAgain) {
  StagingArena arena(kArenaBase, KiB(64));
  const auto a = arena.Alloc(4096);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, kArenaBase);
  const auto b = arena.Alloc(100);  // a 128-byte block
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, kArenaBase + 4096);
  arena.Release(*a, 4096);
  EXPECT_EQ(arena.in_use(), 128u);
  // Any length of the class takes the released block; nothing is carved.
  const auto c = arena.Alloc(2049);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);
  EXPECT_EQ(arena.carved(), 4096u + 128u);
  EXPECT_EQ(arena.in_use(), 4096u + 128u);
  EXPECT_EQ(arena.high_water(), 4096u + 128u);
}

TEST(StagingArena, NoLiveByteIsHandedOutTwice) {
  constexpr Bytes kCapacity = KiB(256);
  StagingArena arena(kArenaBase, kCapacity);
  Rng rng(20260);
  std::map<std::uint64_t, Bytes> live;  // block start -> requested length
  Bytes live_bytes = 0;
  int refused = 0;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const Bytes len = rng.Between(1, 9000);
      const auto addr = arena.Alloc(len);
      if (!addr.has_value()) {
        ++refused;
        continue;
      }
      const Bytes block = StagingArena::BlockBytes(len);
      ASSERT_GE(block, len);
      ASSERT_GE(*addr, kArenaBase);
      ASSERT_LE(*addr + block, kArenaBase + kCapacity);
      // The new block overlaps neither live neighbour.
      const auto next = live.lower_bound(*addr);
      if (next != live.end()) {
        ASSERT_LE(*addr + block, next->first) << "step " << step;
      }
      if (next != live.begin()) {
        const auto prev = std::prev(next);
        ASSERT_LE(prev->first + StagingArena::BlockBytes(prev->second), *addr)
            << "step " << step;
      }
      live.emplace(*addr, len);
      live_bytes += block;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      arena.Release(it->first, it->second);
      live_bytes -= StagingArena::BlockBytes(it->second);
      live.erase(it);
    }
    ASSERT_EQ(arena.in_use(), live_bytes);
    ASSERT_LE(arena.carved(), kCapacity);
  }
  EXPECT_GT(refused, 0);  // the sequence did run the arena full
}

TEST(StagingArena, ExhaustionFailsAndNeverWraps) {
  StagingArena arena(kArenaBase, KiB(4));
  for (int i = 0; i < 4; ++i) {
    const auto block = arena.Alloc(1024);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(*block, kArenaBase + static_cast<std::uint64_t>(i) * 1024);
  }
  EXPECT_FALSE(arena.Alloc(1024).has_value());
  // Blocks never split: a released 1 KiB block serves only its own class.
  arena.Release(kArenaBase + 2048, 1024);
  EXPECT_FALSE(arena.Alloc(64).has_value());
  EXPECT_FALSE(arena.Alloc(2048).has_value());
  const auto again = arena.Alloc(600);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, kArenaBase + 2048);
  EXPECT_FALSE(arena.Alloc(600).has_value());
  EXPECT_EQ(arena.carved(), KiB(4));
  // A block larger than the whole arena never fits.
  EXPECT_FALSE(StagingArena(kArenaBase, KiB(4)).Alloc(KiB(4) + 1).has_value());
}

TEST(StagingArena, SteadyStateDoesNotGrowStorage) {
  StagingArena arena(kArenaBase, MiB(1));
  constexpr Bytes kLens[] = {40, 4096, 4096 * 16, 300, 4096, 24 * 64};
  std::vector<std::pair<std::uint64_t, Bytes>> held;
  Bytes carved_after_first_round = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const Bytes len : kLens) {
      const auto addr = arena.Alloc(len);
      ASSERT_TRUE(addr.has_value());
      held.emplace_back(*addr, len);
    }
    for (const auto& [addr, len] : held) arena.Release(addr, len);
    held.clear();
    if (round == 0) carved_after_first_round = arena.carved();
    ASSERT_EQ(arena.carved(), carved_after_first_round) << "round " << round;
    ASSERT_EQ(arena.in_use(), 0u);
  }
  EXPECT_EQ(arena.high_water(), carved_after_first_round);
}

// ---------------------------------------------------------------------------
// The agent's staging under load: two memory servers, so that one thread's
// pool read can be held on one server's QP (its response dropped, under a
// long Go-Back-N timeout) while every other read flows through the other
// server's.

constexpr std::uint32_t kRecordBytes = 4096;
constexpr Bytes kStagingPool = MiB(2);
// The two-thread instance's probe block (two 24-byte green blocks, in a
// 64-byte block) and metadata block (2 x 64 entries x 24 B, in 4 KiB).
constexpr Bytes kInstanceBlocks = 64 + 4096;

// Record k: 4 KiB of bytes no other record has.
std::vector<std::uint8_t> Record(int k) {
  return Pattern(kRecordBytes, 7000 + static_cast<std::uint64_t>(k));
}

class SpotStagingTest : public ::testing::Test {
 public:
  explicit SpotStagingTest(Bytes staging_capacity) {
    client_ = &f_.AddClient(0, testing::SmallRings(2));
    for (int m = 0; m < 2; ++m) {  // region m + 1 lives on memory server m
      const rdma::MemoryRegion* mr =
          f_.memory(m).dev->RegisterMemory(kPoolBase, kStagingPool);
      client_->RegisterRegion(
          RegionInfo{static_cast<std::uint16_t>(m + 1), f_.memory(m).id(),
                     kPoolBase, mr->rkey, kStagingPool});
    }
    SpotAgent::Config config;
    config.staging_capacity = staging_capacity;
    agent_ = &f_.AddSpotAgent(config);
    f_.Attach(*agent_, *client_);
    agent_->Start();
  }

  static workload::ClusterSpec Spec() {
    workload::ClusterSpec spec;
    spec.hosts = {workload::ClusterSpec::Host::kMemory,
                  workload::ClusterSpec::Host::kMemory,
                  workload::ClusterSpec::Host::kSpot};
    spec.nic.retransmit_timeout = Millis(1);
    return spec;
  }

  // Puts record k at offset k * 4 KiB of region `region` (1 or 2).
  void Store(std::uint16_t region, int k) {
    f_.memory(region - 1).mem.Write(
        kPoolBase + static_cast<std::uint64_t>(k) * kRecordBytes, Record(k));
  }

  // Reads the records `keys` names ((region, k) pairs) on thread context
  // `t`, all outstanding together, the i-th into dest + i * 4 KiB; returns
  // how many landed with bytes other than their record's.
  sim::Task<int> ReadRecords(int t, sim::SimThread& thread,
                             std::vector<std::pair<std::uint16_t, int>> keys,
                             std::uint64_t dest) {
    auto& ctx = client_->thread(t);
    const core::PollId poll = ctx.PollCreate();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::optional<ReqId> id;
      while (!(id = co_await ctx.AsyncRead(
                   thread, keys[i].first,
                   static_cast<std::uint64_t>(keys[i].second) * kRecordBytes,
                   dest + i * kRecordBytes, kRecordBytes))) {
        co_await thread.Idle(Micros(5));
      }
      ctx.PollAdd(poll, *id);
    }
    std::size_t done = 0;
    while (done < keys.size()) {
      done += (co_await ctx.PollWait(thread, poll,
                                     static_cast<int>(keys.size()),
                                     Millis(5)))
                  .size();
    }
    int wrong = 0;
    std::vector<std::uint8_t> got(kRecordBytes);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f_.client(0).mem.Read(dest + i * kRecordBytes, got);
      if (got != Record(keys[i].second)) ++wrong;
    }
    co_return wrong;
  }

  // Writes records `first` .. `first + count - 1` to region `region` on
  // thread context `t`, all outstanding together, staged from `src`.
  sim::Task<void> WriteRecords(int t, sim::SimThread& thread,
                               std::uint16_t region, int first, int count,
                               std::uint64_t src) {
    auto& ctx = client_->thread(t);
    const core::PollId poll = ctx.PollCreate();
    for (int i = 0; i < count; ++i) {
      const std::uint64_t at =
          src + static_cast<std::uint64_t>(i) * kRecordBytes;
      f_.client(0).mem.Write(at, Record(first + i));
      std::optional<ReqId> id;
      while (!(id = co_await ctx.AsyncWrite(
                   thread, region, at,
                   static_cast<std::uint64_t>(first + i) * kRecordBytes,
                   kRecordBytes))) {
        co_await thread.Idle(Micros(5));
      }
      ctx.PollAdd(poll, *id);
    }
    int done = 0;
    while (done < count) {
      done += static_cast<int>(
          (co_await ctx.PollWait(thread, poll, count, Millis(5))).size());
    }
  }

  workload::Cluster f_{Spec()};
  core::CowbirdClient* client_ = nullptr;
  SpotAgent* agent_ = nullptr;
  std::array<std::unique_ptr<sim::SimThread>, 2> app_{
      std::make_unique<sim::SimThread>(*f_.client(0).machine, "app0"),
      std::make_unique<sim::SimThread>(*f_.client(0).machine, "app1")};
};

class SpotStagingReuseTest : public SpotStagingTest {
 public:
  SpotStagingReuseTest() : SpotStagingTest(KiB(256)) {}
};

// Thread 0's first read is held on memory0's QP, so its next four reads,
// fetched from memory1, wait staged behind it (reads deliver in order).
// Meanwhile thread 1 streams 96 reads through memory1: about 800 KiB of
// staging with its batch blocks, three laps of the 256 KiB arena. The
// waiting reads' staging must survive the stream. An arena that wraps
// hands their bytes to the stream and delivers them with its records.
TEST_F(SpotStagingReuseTest, HeldReadsKeepTheirStagingWhileOthersCycle) {
  Store(1, 0);
  for (int k = 1; k <= 100; ++k) Store(2, k);
  // Drops the first packet of record 0's response; the rest of that
  // response is out of sequence and ignored until the resend.
  auto from_memory0 = std::make_shared<int>(0);
  const net::NodeId memory0 = f_.memory(0).id();
  f_.sw().EgressLink(f_.spot().nic.switch_port())
      .set_drop_filter([from_memory0, memory0](const net::Packet& p) {
        return p.src == memory0 && rdma::LooksLikeRdma(p) &&
               (*from_memory0)++ == 0;
      });

  int held_wrong = -1;
  int stream_wrong = 0;
  Nanos held_done = 0;
  Nanos stream_done = 0;
  int finished = 0;
  f_.sim.Spawn([](SpotStagingReuseTest& t, int& wrong, Nanos& at,
                  int& count) -> sim::Task<void> {
    // Record 0 from memory0 (held), records 1-4 from memory1.
    std::vector<std::pair<std::uint16_t, int>> keys(1, {1, 0});
    for (int k = 1; k <= 4; ++k) keys.emplace_back(2, k);
    wrong = co_await t.ReadRecords(0, *t.app_[0], keys, kHeap);
    at = t.f_.sim.Now();
    if (++count == 2) t.f_.sim.Halt();
  }(*this, held_wrong, held_done, finished));
  f_.sim.Spawn([](SpotStagingReuseTest& t, int& wrong, Nanos& at,
                  int& count) -> sim::Task<void> {
    co_await t.app_[1]->Idle(Micros(20));  // thread 0's reads stage first
    for (int round = 0; round < 12; ++round) {
      std::vector<std::pair<std::uint16_t, int>> keys;
      for (int i = 0; i < 8; ++i) keys.emplace_back(2, 5 + round * 8 + i);
      wrong += co_await t.ReadRecords(1, *t.app_[1], keys, kHeap + MiB(1));
    }
    at = t.f_.sim.Now();
    if (++count == 2) t.f_.sim.Halt();
  }(*this, stream_wrong, stream_done, finished));
  f_.sim.Run();

  ASSERT_EQ(finished, 2);
  EXPECT_EQ(*from_memory0, 8);  // two transmissions of a 4-packet response
  EXPECT_GT(held_done, stream_done);  // the hold spanned the whole stream
  EXPECT_EQ(held_wrong, 0);
  EXPECT_EQ(stream_wrong, 0);
  EXPECT_LE(agent_->staging().carved(), KiB(256));
  EXPECT_EQ(agent_->staging_waits(), 0u);
  // Once the last batch's ACK is in, everything but the instance's probe
  // and metadata blocks is back.
  f_.sim.RunFor(Micros(50));
  EXPECT_EQ(agent_->staging().in_use(), kInstanceBlocks);
}

class SpotStagingBackPressureTest : public SpotStagingTest {
 public:
  // Room for the instance's probe and metadata blocks and three 4 KiB
  // blocks: far below the 16 ops the two threads keep live.
  SpotStagingBackPressureTest() : SpotStagingTest(KiB(20)) {}
};

TEST_F(SpotStagingBackPressureTest, FullArenaWaitsAndEveryOpCompletes) {
  for (int k = 0; k < 64; ++k) Store(2, k);
  int read_wrong = 0;
  int readback_wrong = 0;
  int finished = 0;
  f_.sim.Spawn([](SpotStagingBackPressureTest& t, int& wrong,
                  int& count) -> sim::Task<void> {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::pair<std::uint16_t, int>> keys;
      for (int i = 0; i < 8; ++i) keys.emplace_back(2, round * 8 + i);
      wrong += co_await t.ReadRecords(0, *t.app_[0], keys, kHeap);
    }
    if (++count == 2) t.f_.sim.Halt();
  }(*this, read_wrong, finished));
  f_.sim.Spawn([](SpotStagingBackPressureTest& t, int& wrong,
                  int& count) -> sim::Task<void> {
    for (int round = 0; round < 4; ++round) {
      const int first = 100 + round * 8;
      co_await t.WriteRecords(1, *t.app_[1], 1, first, 8, kHeap + MiB(2));
      std::vector<std::pair<std::uint16_t, int>> keys;
      for (int i = 0; i < 8; ++i) keys.emplace_back(1, first + i);
      wrong += co_await t.ReadRecords(1, *t.app_[1], keys, kHeap + MiB(1));
    }
    if (++count == 2) t.f_.sim.Halt();
  }(*this, readback_wrong, finished));
  f_.sim.Run();

  ASSERT_EQ(finished, 2);
  EXPECT_EQ(read_wrong, 0);
  EXPECT_EQ(readback_wrong, 0);
  for (int k = 100; k < 132; ++k) {
    std::vector<std::uint8_t> pool(kRecordBytes);
    f_.memory(0).mem.Read(kPoolBase + static_cast<std::uint64_t>(k) *
                                          kRecordBytes,
                          pool);
    EXPECT_EQ(pool, Record(k)) << "record " << k;
  }
  EXPECT_GT(agent_->staging_waits(), 0u);
  EXPECT_LE(agent_->staging().high_water(), KiB(20));
  f_.sim.RunFor(Micros(50));
  EXPECT_EQ(agent_->staging().in_use(), kInstanceBlocks);
  EXPECT_EQ(agent_->ops_completed(), 64u + 32u + 32u);
}

// A write carried in a crash snapshot that still waits for staging when
// its instance is exported again keeps its payload in the new snapshot:
// the client's data-ring bytes for it were consumed before the first crash,
// so nothing else could replay it.
TEST(SpotStagingResumeTest, QueuedCarriedWriteIsExportedWithItsPayload) {
  workload::Cluster f{workload::ClusterSpec{}};
  const RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(1));
  core::CowbirdClient& client = f.AddClient(0, testing::SmallRings(2));
  client.RegisterRegion(pool);
  SpotAgent::Config config;
  config.staging_capacity = kInstanceBlocks;  // no room for any op
  SpotAgent& agent = f.AddSpotAgent(config);

  offload::InstanceProgress resume;
  resume.threads.resize(2);
  resume.pending.resize(2);
  offload::PendingOp write;
  write.meta.rw_type = core::RwType::kWrite;
  write.meta.region_id = kRegion;
  write.meta.resp_addr = kPoolBase + 0x3000;
  write.meta.length = kRecordBytes;
  write.seq = 1;
  write.payload = Record(9);
  resume.pending[0].push_back(write);
  f.Attach(agent, client, {}, &resume);
  agent.Start();
  f.sim.RunFor(Micros(50));
  EXPECT_GT(agent.staging_waits(), 0u);

  const auto exported = f.Detach(agent, client);
  ASSERT_TRUE(exported.has_value());
  ASSERT_EQ(exported->pending.size(), 2u);
  ASSERT_EQ(exported->pending[0].size(), 1u);
  EXPECT_EQ(exported->pending[0][0].seq, 1u);
  EXPECT_EQ(exported->pending[0][0].payload, Record(9));
}

}  // namespace
}  // namespace cowbird::spot
