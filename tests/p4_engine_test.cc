// End-to-end integration: Cowbird client library + Cowbird-P4 switch engine.
// The compute node issues requests with local-memory writes; the *switch*
// moves all data by generating and recycling RDMA packets.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "fabric_fixture.h"
#include "p4/engine.h"
#include "rdma/congestion.h"

namespace cowbird::p4 {
namespace {

using core::CowbirdClient;
using core::RegionInfo;
using testing::Pattern;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

class P4EngineTest : public testing::ClusterTest {
 public:
  P4EngineTest() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    client_ = &f_.AddClient(0, testing::SmallRings(2));
    client_->RegisterRegion(pool);
    engine_ = &f_.AddP4Engine(CowbirdP4Engine::Config{});
    f_.Attach(*engine_, *client_);
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
  EXPECT_LT(app_thread_->TimeIn(sim::CpuCategory::kCommunication),
            rdma::cost::PostTotal() + 15 * rdma::cost::kCowbirdPoll +
                10 * rdma::cost::kLlcAccess);
}

// The switch QPNs a host's QPs talk to, in creation order.
std::vector<std::uint32_t> SwitchQpns(rdma::Device& host) {
  std::vector<std::uint32_t> qpns;
  for (std::uint32_t q = 1; const rdma::QueuePair* qp = host.FindQp(q);
       ++q) {
    if (qp->remote_node() == kSwitchAddress) qpns.push_back(qp->remote_qpn());
  }
  return qpns;
}

TEST_F(P4EngineTest, DetachAndReattachServesOnAFreshQpnBlock) {
  const auto before = Pattern(256, 11);
  const auto after = Pattern(256, 12);
  f_.sim.Spawn([](P4EngineTest& t, const std::vector<std::uint8_t>& first,
                  const std::vector<std::uint8_t>& second)
                   -> sim::Task<void> {
    t.f_.client(0).mem.Write(kHeap, first);
    co_await t.WriteAndWait(0, kHeap, 0x4000, 256);
    // The switch keeps probing; the instance leaves it and comes back from
    // its exported counters.
    const offload::InstanceProgress snapshot =
        t.f_.Detach(*t.engine_, *t.client_).value();
    EXPECT_EQ(snapshot.threads[0].write_progress, 1u);
    t.f_.Attach(*t.engine_, *t.client_, {}, &snapshot);

    auto got = co_await t.ReadAndWait(0, 0x4000, 256, kHeap + 0x10000);
    EXPECT_EQ(got, first);
    t.f_.client(0).mem.Write(kHeap, second);
    co_await t.WriteAndWait(1, kHeap, 0x5000, 256);
    got = co_await t.ReadAndWait(1, 0x5000, 256, kHeap + 0x10000);
    EXPECT_EQ(got, second);
    t.f_.sim.Halt();
  }(*this, before, after));
  f_.sim.Run();
  EXPECT_EQ(engine_->ops_completed(), 4u);
  // Compute, probe and payload-write QPs of each attach: the re-attach took
  // the next block instead of reusing the first one's QPNs.
  EXPECT_EQ(SwitchQpns(*f_.client(0).dev),
            (std::vector<std::uint32_t>{0x800, 0x801, 0x802, 0x820, 0x821,
                                        0x822}));
}

// The switch QPs' retransmission timers die with the detached instance and
// return their cells, so attach/detach churn does not grow the timer pool.
TEST_F(P4EngineTest, DetachReturnsTheSwitchQpTimerCells) {
  std::uint64_t attached = 0, detached = 0;
  f_.sim.Spawn([](P4EngineTest& t, std::uint64_t& a,
                  std::uint64_t& d) -> sim::Task<void> {
    t.f_.client(0).mem.Write(kHeap, Pattern(256, 13));
    co_await t.WriteAndWait(0, kHeap, 0x4000, 256);
    a = t.f_.sim.TimerPoolStats().in_use;
    t.f_.Detach(*t.engine_, *t.client_).value();
    d = t.f_.sim.TimerPoolStats().in_use;
    t.f_.sim.Halt();
  }(*this, attached, detached));
  f_.sim.Run();
  EXPECT_LT(detached, attached);
}

// Phase I teardown (Section 5.2): the instance leaves the switch through the
// one attach path, Cluster::Detach.
using ControlPlaneTest = P4EngineTest;

// One read through the full stack, polled for up to `timeout`; true if it
// completed.
sim::Task<bool> TryRead(P4EngineTest& t, Nanos timeout) {
  auto& ctx = t.client_->thread(0);
  auto id = co_await ctx.AsyncRead(*t.app_thread_, kRegion, 0x2000, kHeap, 64);
  if (!id.has_value()) co_return false;
  const core::PollId poll = ctx.PollCreate();
  ctx.PollAdd(poll, *id);
  const Nanos deadline = t.f_.sim.Now() + timeout;
  while (t.f_.sim.Now() < deadline) {
    auto done = co_await ctx.PollWait(*t.app_thread_, poll, 1, Micros(50));
    if (!done.empty()) co_return true;
  }
  co_return false;
}

TEST_F(ControlPlaneTest, TeardownStopsService) {
  bool before = false, detached = false, after = true;
  f_.sim.Spawn([](ControlPlaneTest& t, bool& b, bool& d,
                  bool& a) -> sim::Task<void> {
    b = co_await TryRead(t, Millis(2));
    d = t.f_.Detach(*t.engine_, *t.client_).has_value();
    a = co_await TryRead(t, Millis(1));
    t.f_.sim.Halt();
  }(*this, before, detached, after));
  f_.sim.Run();
  EXPECT_TRUE(before);
  EXPECT_TRUE(detached);
  EXPECT_FALSE(after);  // nothing probes the rings anymore
}

TEST_F(ControlPlaneTest, TeardownOfUnknownInstanceFails) {
  EXPECT_FALSE(engine_->RemoveInstance(4242));
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

// A RoCE packet to the switch whose opcode names a RETH that the body is too
// short to hold is dropped and counted; the engine goes on serving.
TEST_F(P4EngineTest, TruncatedRethToTheSwitchIsDroppedAndCounted) {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadRequest;
  bth.dest_qp = 1;
  net::Packet packet = net::MakeUdpPacket(
      testing::kComputeId, kSwitchAddress,
      rdma::kBthBytes + rdma::kRethBytes / 2 + rdma::kIcrcBytes,
      net::Priority::kRdma);
  bth.Serialize(packet.MutableL4Payload());
  f_.client(0).nic.Send(std::move(packet));

  const auto data = Pattern(128, 9);
  f_.memory(0).mem.Write(kPoolBase + 0xA000, data);
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](P4EngineTest& t,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    out = co_await t.ReadAndWait(0, 0xA000, 128, kHeap);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.Run();
  EXPECT_EQ(engine_->malformed_dropped(), 1u);
  EXPECT_EQ(got, data);
}

// A pool read response carrying more bytes than its request asked for is
// dropped and counted, not recycled into an over-long write toward the
// compute node; Go-Back-N re-reads and the op completes with the right
// bytes.
TEST_F(P4EngineTest, OverlongReadResponseIsDroppedAndCounted) {
  const auto data = Pattern(128, 10);
  f_.memory(0).mem.Write(kPoolBase + 0xB000, data);
  // The memory server's first read response (the op's pool read) is
  // replaced by a copy with 64 extra bytes at the same PSN.
  bool crafted = false;
  net::HostNic& memory_nic = f_.memory(0).nic;
  memory_nic.uplink().set_drop_filter([&](const net::Packet& packet) {
    if (crafted || !rdma::LooksLikeRdma(packet)) return false;
    const auto view = rdma::ParseRdmaPacket(packet);
    if (!view || !rdma::IsReadResponse(view->bth.opcode)) return false;
    crafted = true;
    std::vector<std::uint8_t> payload(view->payload.begin(),
                                      view->payload.end());
    payload.resize(payload.size() + 64, 0xEE);
    net::Packet longer = rdma::BuildRdmaPacket(
        packet.src, packet.dst, packet.priority, view->bth, nullptr,
        view->aeth ? &*view->aeth : nullptr, payload);
    f_.sim.ScheduleAfter(
        0, [&memory_nic, longer = std::move(longer)]() mutable {
          memory_nic.Send(std::move(longer));
        });
    return true;
  });
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](P4EngineTest& t,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    out = co_await t.ReadAndWait(0, 0xB000, 128, kHeap);
    t.f_.sim.Halt();
  }(*this, got));
  f_.sim.RunFor(Millis(20));
  EXPECT_TRUE(crafted);
  EXPECT_EQ(engine_->malformed_dropped(), 1u);
  // Nothing over-long reached the compute node.
  EXPECT_EQ(f_.client(0).dev->malformed_dropped(), 0u);
  EXPECT_EQ(engine_->ops_completed(), 1u);
  EXPECT_EQ(got, data);
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
  // The paper's program (no range table): Table 5's PHV 1085 b, SRAM
  // 1424 KB, TCAM 1.28 KB, 12 stages, 38 VLIW, 11 sALU at 32 ports.
  const auto paper =
      BuildCowbirdP4Spec(P4SpecParams{.translation_ranges = 0}).Sum();
  EXPECT_EQ(paper.phv_bits, 1085);
  EXPECT_EQ(paper.stages, 12);
  EXPECT_EQ(paper.vliw_instructions, 38);
  EXPECT_EQ(paper.stateful_alus, 11);
  EXPECT_NEAR(paper.sram_kib, 1424.0, 30.0);
  EXPECT_NEAR(paper.tcam_kib, 1.28, 0.05);
  // The full pipeline adds the elastic-pool ig3_range_translate stage
  // (DESIGN.md §14): +1 stage, +3 VLIW, +2.5 KiB SRAM, +2.5 KiB TCAM.
  const P4PipelineSpec spec = BuildCowbirdP4Spec(P4SpecParams{});
  const auto totals = spec.Sum();
  EXPECT_EQ(totals.phv_bits, 1085);
  EXPECT_EQ(totals.stages, 13);
  EXPECT_EQ(totals.vliw_instructions, 41);
  EXPECT_EQ(totals.stateful_alus, 11);
  EXPECT_NEAR(totals.sram_kib, 1426.5, 30.0);
  EXPECT_NEAR(totals.tcam_kib, 3.78, 0.05);
  EXPECT_DOUBLE_EQ(totals.sram_kib - paper.sram_kib, 2.5);
  EXPECT_DOUBLE_EQ(totals.tcam_kib - paper.tcam_kib, 2.5);
}

// A region that ClusterPool spills across two memory servers: the switch
// keeps one (pool-read, pool-write) QP pair per server, the translation
// table picks the pair per operation, and a CNP aimed at one server's write
// QP is reflected to that server's NIC alone.
TEST(P4TwoServers, SpilledRegionServesBothServersAndReflectsCnpsPerServer) {
  using Host = workload::ClusterSpec::Host;
  workload::ClusterSpec spec;
  spec.hosts = {Host::kMemory, Host::kSpot, Host::kMemory};
  spec.nic.dcqcn.enabled = true;
  workload::Cluster f{spec};
  core::ClusterPool pool;
  pool.AddServer(*f.memory(0).dev, kPoolBase, KiB(16));
  pool.AddServer(*f.memory(1).dev, kPoolBase, MiB(1));
  const auto region =
      pool.AllocateRegion(kRegion, kPoolBase, KiB(64), f.memory(0).id());
  ASSERT_TRUE(region.has_value());
  ASSERT_EQ(pool.RangesFor(kRegion).size(), 2u);

  CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(*region);
  client.SetRegionRanges(kRegion, pool.RangesFor(kRegion));
  CowbirdP4Engine& engine = f.AddP4Engine(CowbirdP4Engine::Config{});
  f.Attach(engine, client);
  engine.Start();

  // One offset in each server's range.
  const std::uint64_t offsets[2] = {0x1000, KiB(16) + 0x2000};
  const std::vector<std::uint8_t> data[2] = {Pattern(256, 31),
                                             Pattern(256, 32)};
  std::vector<std::uint8_t> got[2];
  sim::SimThread app(*f.client(0).machine, "app");
  f.sim.Spawn([](workload::Cluster& ff, CowbirdClient& c,
                 sim::SimThread& thread, const std::uint64_t* off,
                 const std::vector<std::uint8_t>* in,
                 std::vector<std::uint8_t>* out) -> sim::Task<void> {
    for (int s = 0; s < 2; ++s) {
      ff.client(0).mem.Write(kHeap, in[s]);
      (void)co_await testing::WriteAndWait(c, 0, thread, kHeap, off[s], 256);
    }
    for (int s = 0; s < 2; ++s) {
      out[s] = co_await testing::ReadAndWait(ff, c, 0, thread, off[s], 256,
                                             kHeap + 0x10000);
    }
    // Server 1 signals congestion on its write QP, as its NIC would after
    // a CE-marked recycled write.
    const std::vector<std::uint32_t> qpns = SwitchQpns(*ff.memory(1).dev);
    EXPECT_EQ(qpns.size(), 2u);  // pool read, pool write
    rdma::Bth bth;
    bth.opcode = rdma::Opcode::kCnp;
    bth.dest_qp = qpns.back();
    ff.memory(1).nic.Send(rdma::BuildRdmaPacket(
        ff.memory(1).id(), kSwitchAddress, net::Priority::kControl, bth,
        nullptr, nullptr, {}));
    co_await thread.Idle(Micros(20));
    ff.sim.Halt();
  }(f, client, app, offsets, data, got));
  f.sim.Run();

  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(got[s], data[s]) << "server " << s;
    const auto where = pool.table().Lookup(kRegion, kPoolBase + offsets[s],
                                           256);
    ASSERT_TRUE(where.has_value());
    EXPECT_EQ(where->node, f.memory(s).id());
    std::vector<std::uint8_t> landed(256);
    f.memory(s).mem.Read(where->addr, landed);
    EXPECT_EQ(landed, data[s]) << "server " << s;
  }
  EXPECT_EQ(engine.ops_completed(), 4u);
  EXPECT_EQ(engine.cnps_reflected(), 1u);
  EXPECT_EQ(f.memory(1).dev->congestion()->cnps_received(), 1u);
  EXPECT_EQ(f.memory(0).dev->congestion()->cnps_received(), 0u);
}

// The switch's ECN stamping comes from the fabric: with a default engine
// Config, the data packets it generates (requests, probes and recycled
// writes, toward both hosts) are ECT(0) exactly when the NICs run DCQCN.
TEST(P4Ecn, GeneratedDataPacketsAreEcnCapableExactlyOnADcqcnFabric) {
  for (const bool dcqcn : {false, true}) {
    workload::ClusterSpec spec;
    spec.nic.dcqcn.enabled = dcqcn;
    workload::Cluster f{spec};
    const RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(1));
    CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
    client.RegisterRegion(pool);
    CowbirdP4Engine& engine = f.AddP4Engine(CowbirdP4Engine::Config{});
    f.Attach(engine, client);
    engine.Start();

    std::uint64_t generated = 0, capable = 0;
    const auto observe = [&](const net::Packet& p) {
      if (p.src == kSwitchAddress && p.priority != net::Priority::kControl) {
        ++generated;
        if (p.EcnBits() == net::kEcnEct0) ++capable;
      }
      return false;  // observe only
    };
    f.sw().EgressLink(f.memory(0).nic.switch_port()).set_drop_filter(observe);
    f.sw().EgressLink(f.client(0).nic.switch_port()).set_drop_filter(observe);

    std::vector<std::uint8_t> got;
    sim::SimThread app(*f.client(0).machine, "app");
    f.sim.Spawn([](workload::Cluster& ff, CowbirdClient& c,
                   sim::SimThread& thread,
                   std::vector<std::uint8_t>& out) -> sim::Task<void> {
      ff.client(0).mem.Write(kHeap, Pattern(256, 41));
      (void)co_await testing::WriteAndWait(c, 0, thread, kHeap, 0x3000, 256);
      out = co_await testing::ReadAndWait(ff, c, 0, thread, 0x3000, 256,
                                          kHeap + 0x10000);
      ff.sim.Halt();
    }(f, client, app, got));
    f.sim.Run();

    EXPECT_EQ(got, Pattern(256, 41)) << "dcqcn=" << dcqcn;
    EXPECT_GT(engine.packets_recycled(), 0u);
    EXPECT_GT(generated, 0u);
    EXPECT_EQ(capable, dcqcn ? generated : 0u) << "dcqcn=" << dcqcn;
  }
}

// Two instances share one switch: TDM probing must serve both.
TEST(P4MultiInstance, TimeDivisionMultiplexing) {
  workload::Cluster f{workload::ClusterSpec{}};
  const RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(64));

  CowbirdP4Engine& engine = f.AddP4Engine(CowbirdP4Engine::Config{});

  std::vector<CowbirdClient*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(
        &f.AddClient(0, testing::SmallRings(1, 0x10000 + i * MiB(8))));
    clients.back()->RegisterRegion(pool);
    f.Attach(engine, *clients.back());
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
