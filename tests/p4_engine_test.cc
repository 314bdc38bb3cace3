// End-to-end integration: Cowbird client library + Cowbird-P4 switch engine.
// The compute node issues requests with local-memory writes; the *switch*
// moves all data by generating and recycling RDMA packets.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "p4/engine.h"

namespace cowbird::p4 {
namespace {

using core::CowbirdClient;
using core::RegionInfo;
using testing::Pattern;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;
constexpr net::NodeId kSwitchId = 100;

class P4EngineTest : public testing::ClusterTest {
 public:
  P4EngineTest() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    client_ = &f_.AddClient(0, testing::SmallRings(2));
    client_->RegisterRegion(pool);
    CowbirdP4Engine::Config ec;
    ec.switch_node_id = kSwitchId;
    engine_ = &f_.AddP4Engine(ec);
    f_.AttachP4(*client_, 0x800);
    engine_->Start();
  }

  CowbirdP4Engine* engine_ = nullptr;
};

TEST_F(P4EngineTest, ReadFetchesPoolDataWithZeroComputeCpu) {
  const auto data = Pattern(256, 1);
  f_.memory(0).mem.Write(kPoolBase + 0x2000, data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](P4EngineTest& t,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    out = co_await t.ReadAndWait(0, 0x2000, 256, kHeap);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(got, data);
  EXPECT_GT(engine_->probes_sent(), 0u);
  EXPECT_EQ(engine_->ops_completed(), 1u);
  EXPECT_GT(engine_->packets_recycled(), 0u);
  // The compute node spent only Cowbird-API time (one issue + a handful of
  // completion checks while waiting) — far less than even two verb posts,
  // let alone a sync RDMA spin of the same duration (~4 us ≈ 4000 ns).
  rdma::CostModel costs;
  EXPECT_LT(app_thread_->TimeIn(sim::CpuCategory::kCommunication),
            costs.PostTotal() + 15 * costs.cowbird_poll + 10 * costs.llc_access);
}

TEST_F(P4EngineTest, WriteLandsInPool) {
  const auto data = Pattern(512, 2);
  f_.client(0).mem.Write(kHeap, data);
  f_.sim.Spawn([](P4EngineTest& t) -> sim::Task<void> {
    co_await t.WriteAndWait(0, kHeap, 0x8000, 512);
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  std::vector<std::uint8_t> out(512);
  f_.memory(0).mem.Read(kPoolBase + 0x8000, out);
  EXPECT_EQ(out, data);
}

TEST_F(P4EngineTest, ReadAfterWriteSeesNewData) {
  const auto new_data = Pattern(128, 4);
  f_.memory(0).mem.Write(kPoolBase + 0x9000, Pattern(128, 3));
  f_.client(0).mem.Write(kHeap, new_data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](P4EngineTest& t,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    auto w = co_await ctx.AsyncWrite(*t.app_thread_, kRegion, kHeap, 0x9000,
                                     128);
    auto r = co_await ctx.AsyncRead(*t.app_thread_, kRegion, 0x9000,
                                    kHeap + 4096, 128);
    EXPECT_TRUE(w && r);
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *w);
    ctx.PollAdd(poll, *r);
    int done = 0;
    while (done < 2) {
      done += static_cast<int>(
          (co_await ctx.PollWait(*t.app_thread_, poll, 2, Millis(5))).size());
    }
    out.resize(128);
    t.f_.client(0).mem.Read(kHeap + 4096, out);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(got, new_data);
  EXPECT_GT(engine_->reads_paused_by_writes(), 0u);
}

TEST_F(P4EngineTest, PausesEvenNonOverlappingReads) {
  // The RMT restriction (Section 5.3): unlike Cowbird-Spot's exact range
  // check, Cowbird-P4 pauses ALL newly probed reads while a write is
  // active — even to disjoint addresses.
  const auto b = Pattern(128, 6);
  f_.memory(0).mem.Write(kPoolBase + 0x20000, b);
  f_.client(0).mem.Write(kHeap, Pattern(128, 5));
  f_.sim.Spawn([](P4EngineTest& t) -> sim::Task<void> {
    auto& ctx = t.client_->thread(0);
    auto w = co_await ctx.AsyncWrite(*t.app_thread_, kRegion, kHeap, 0x9000,
                                     128);
    auto r = co_await ctx.AsyncRead(*t.app_thread_, kRegion, 0x20000,
                                    kHeap + 4096, 128);  // disjoint!
    EXPECT_TRUE(w && r);
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *w);
    ctx.PollAdd(poll, *r);
    int done = 0;
    while (done < 2) {
      done += static_cast<int>(
          (co_await ctx.PollWait(*t.app_thread_, poll, 2, Millis(5))).size());
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  EXPECT_GT(engine_->reads_paused_by_writes(), 0u);
  std::vector<std::uint8_t> out(128);
  f_.client(0).mem.Read(kHeap + 4096, out);
  EXPECT_EQ(out, b);
}

TEST_F(P4EngineTest, LargeTransfersSegmentAndRecycle) {
  const auto data = Pattern(5 * 1024, 9);
  f_.client(0).mem.Write(kHeap, data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](P4EngineTest& t,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    co_await t.WriteAndWait(0, kHeap, 0x70000, 5 * 1024);
    out = co_await t.ReadAndWait(0, 0x70000, 5 * 1024, kHeap + 0x10000);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(got, data);
  // 5 KiB each way = 5 packets converted per direction, plus headers.
  EXPECT_GE(engine_->packets_recycled(), 10u);
}

TEST_F(P4EngineTest, TwoThreadsProgressIndependently) {
  const auto d0 = Pattern(256, 7);
  const auto d1 = Pattern(256, 8);
  f_.memory(0).mem.Write(kPoolBase + 0x50000, d0);
  f_.memory(0).mem.Write(kPoolBase + 0x60000, d1);
  int finished = 0;
  for (int t = 0; t < 2; ++t) {
    f_.sim.Spawn([](P4EngineTest& test, int tid, int& count)
                     -> sim::Task<void> {
      (void)co_await test.ReadAndWait(tid, tid == 0 ? 0x50000 : 0x60000, 256,
                                      kHeap + tid * 4096);
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

TEST_F(P4EngineTest, SustainedMixedWorkload) {
  f_.sim.Spawn([](P4EngineTest& t) -> sim::Task<void> {
    Rng rng(77);
    for (int i = 0; i < 150; ++i) {
      const auto len = static_cast<std::uint32_t>(rng.Between(8, 2048));
      const std::uint64_t off = rng.Below(512) * 2048;
      if (rng.Bernoulli(0.4)) {
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

TEST_F(P4EngineTest, SurvivesPacketLossViaGoBackN) {
  auto rng = std::make_shared<Rng>(99);
  auto loss = [rng](const net::Packet& p) {
    return rdma::LooksLikeRdma(p) && rng->Bernoulli(0.02);
  };
  f_.sw().EgressLink(f_.memory(0).nic.switch_port()).set_drop_filter(loss);
  f_.sw().EgressLink(f_.client(0).nic.switch_port()).set_drop_filter(loss);

  f_.sim.Spawn([](P4EngineTest& t) -> sim::Task<void> {
    for (int i = 0; i < 40; ++i) {
      const auto data = Pattern(300, 9000 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 512, 300);
      auto got = co_await t.ReadAndWait(0, i * 512, 300, kHeap + 0x100000);
      EXPECT_EQ(got, data) << "iteration " << i;
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  EXPECT_GT(engine_->recoveries(), 0u);
}

TEST_F(P4EngineTest, ResourceSpecMatchesTable5Shape) {
  const P4PipelineSpec spec = BuildCowbirdP4Spec(P4SpecParams{});
  const auto totals = spec.Sum();
  // Table 5 (PHV 1085 b, SRAM 1424 KB, TCAM 1.28 KB, 12 stages, 38 VLIW,
  // 11 sALU at 32 ports) plus the elastic-pool ig3_range_translate stage
  // (DESIGN.md §14): +1 stage, +3 VLIW, +2.5 KiB SRAM, +2.5 KiB TCAM.
  EXPECT_EQ(totals.phv_bits, 1085);
  EXPECT_EQ(totals.stages, 13);
  EXPECT_EQ(totals.vliw_instructions, 41);
  EXPECT_EQ(totals.stateful_alus, 11);
  EXPECT_NEAR(totals.sram_kib, 1426.5, 30.0);
  EXPECT_NEAR(totals.tcam_kib, 3.78, 0.05);
}

// Two instances share one switch: TDM probing must serve both.
TEST(P4MultiInstance, TimeDivisionMultiplexing) {
  workload::Cluster f{workload::ClusterSpec{}};
  const RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(64));

  CowbirdP4Engine::Config ec;
  ec.switch_node_id = kSwitchId;
  CowbirdP4Engine& engine = f.AddP4Engine(ec);

  std::vector<CowbirdClient*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(
        &f.AddClient(0, testing::SmallRings(1, 0x10000 + i * MiB(8))));
    clients.back()->RegisterRegion(pool);
    f.AttachP4(*clients.back(), 0x800 + i * 8);  // 5 QPs per instance
  }
  engine.Start();

  sim::SimThread app(*f.client(0).machine, "app");
  const auto d0 = Pattern(64, 1);
  const auto d1 = Pattern(64, 2);
  f.memory(0).mem.Write(kPoolBase, d0);
  f.memory(0).mem.Write(kPoolBase + 4096, d1);

  int finished = 0;
  for (int i = 0; i < 2; ++i) {
    f.sim.Spawn([](workload::Cluster& ff, CowbirdClient& client,
                   sim::SimThread& thread, std::uint64_t offset,
                   std::uint64_t dest, int& count) -> sim::Task<void> {
      (void)co_await testing::ReadAndWait(ff, client, 0, thread, offset, 64,
                                          dest);
      if (++count == 2) ff.sim.Halt();
    }(f, *clients[i], app, i * 4096ull, kHeap + i * 4096, finished));
  }
  f.sim.Run();
  ASSERT_EQ(finished, 2);
  std::vector<std::uint8_t> out0(64), out1(64);
  f.client(0).mem.Read(kHeap, out0);
  f.client(0).mem.Read(kHeap + 4096, out1);
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  EXPECT_EQ(engine.ops_completed(), 2u);
}

}  // namespace
}  // namespace cowbird::p4
