// End-to-end integration: Cowbird client library + Cowbird-Spot offload
// engine over the simulated RoCE fabric. The compute node issues requests
// with local-memory writes only; the spot agent moves all data.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "spot/agent.h"

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
    f_.AttachSpot(*agent_, *client_);
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

}  // namespace
}  // namespace cowbird::spot
