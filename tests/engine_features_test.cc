// Coverage for engine features outside the core data path: multiple
// instances per spot agent, multiple memory regions per instance, and the
// adaptive probe ramp-up in both engines.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "p4/engine.h"
#include "spot/agent.h"

namespace cowbird {
namespace {

using core::CowbirdClient;
using core::ReqId;
using testing::Pattern;
using testing::ReadAndWait;
using workload::Cluster;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;

TEST(SpotMultiInstance, TwoClientsOneAgent) {
  Cluster f{workload::ClusterSpec{}};
  const core::RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(64));

  spot::SpotAgent& agent = f.AddSpotAgent(spot::SpotAgent::Config{});
  std::vector<CowbirdClient*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(
        &f.AddClient(0, testing::SmallRings(1, 0x10000 + i * MiB(8))));
    clients.back()->RegisterRegion(pool);
    f.Attach(agent, *clients.back());
  }
  agent.Start();

  const auto d0 = Pattern(128, 1);
  const auto d1 = Pattern(128, 2);
  f.memory(0).mem.Write(kPoolBase + 0x1000, d0);
  f.memory(0).mem.Write(kPoolBase + 0x2000, d1);

  sim::SimThread thread(*f.client(0).machine, "app");
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    f.sim.Spawn([](Cluster& ff, CowbirdClient& cl, sim::SimThread& thr,
                   std::uint64_t off, std::uint64_t dest, int& count)
                    -> sim::Task<void> {
      (void)co_await ReadAndWait(ff, cl, 0, thr, off, 128, dest);
      if (++count == 2) ff.sim.Halt();
    }(f, *clients[i], thread, 0x1000 + i * 0x1000ull, kHeap + i * 4096,
      done));
  }
  f.sim.Run();
  ASSERT_EQ(done, 2);
  std::vector<std::uint8_t> out0(128), out1(128);
  f.client(0).mem.Read(kHeap, out0);
  f.client(0).mem.Read(kHeap + 4096, out1);
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  EXPECT_EQ(agent.ops_completed(), 2u);
}

TEST(MultiRegion, TwoRegionsOneInstance) {
  Cluster f{workload::ClusterSpec{}};
  const core::RegionInfo region_a = testing::PoolRegion(f, kPoolBase, MiB(16));
  const core::RegionInfo region_b =
      testing::PoolRegion(f, 0x4000000, MiB(16), 2);
  CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(region_a);
  client.RegisterRegion(region_b);

  spot::SpotAgent& agent = f.AddSpotAgent(spot::SpotAgent::Config{});
  f.Attach(agent, client);
  agent.Start();

  const auto da = Pattern(100, 3);
  const auto db = Pattern(100, 4);
  f.memory(0).mem.Write(kPoolBase + 64, da);
  f.memory(0).mem.Write(0x4000000 + 64, db);

  sim::SimThread thread(*f.client(0).machine, "app");
  f.sim.Spawn([](Cluster& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    auto a = co_await ReadAndWait(ff, cl, 0, thr, 64, 100, kHeap);
    auto b = co_await ReadAndWait(ff, cl, 0, thr, 64, 100, kHeap + 4096, 2);
    (void)a;
    (void)b;
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();

  std::vector<std::uint8_t> oa(100), ob(100);
  f.client(0).mem.Read(kHeap, oa);
  f.client(0).mem.Read(kHeap + 4096, ob);
  EXPECT_EQ(oa, da);
  EXPECT_EQ(ob, db);
}

TEST(AdaptiveProbe, SpotBacksOffWhenIdleAndSnapsBack) {
  Cluster f{workload::ClusterSpec{}};
  const core::RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(16));
  CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(pool);
  spot::SpotAgent::Config ac;
  ac.adaptive_probe = true;
  ac.probe_interval = Micros(2);
  spot::SpotAgent& agent = f.AddSpotAgent(ac);
  f.Attach(agent, client);
  agent.Start();

  // Idle for a while: the interval must ramp to the maximum.
  f.sim.RunFor(Millis(1));
  EXPECT_EQ(agent.current_probe_interval(),
            spot::SpotAgent::kProbeIntervalMax);
  const auto idle_probes = agent.probes_sent();
  // Far fewer probes than the 500 a fixed 2 us interval would have sent.
  EXPECT_LT(idle_probes, 60u);

  // Activity: reads must still complete, and once the probe loop wakes and
  // observes the activity, the interval snaps back toward the baseline.
  sim::SimThread thread(*f.client(0).machine, "app");
  f.sim.Spawn([](Cluster& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await ReadAndWait(ff, cl, 0, thr, i * 64, 64, kHeap);
    }
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();
  // Allow a couple of idle doublings between the last activity and Halt.
  EXPECT_LE(agent.current_probe_interval(), Micros(16));
  EXPECT_EQ(agent.ops_completed(), 4u);
}

TEST(AdaptiveProbe, P4BacksOffWhenIdle) {
  Cluster f{workload::ClusterSpec{}};
  const core::RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(16));
  CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(pool);
  p4::CowbirdP4Engine::Config ec;
  ec.adaptive_probe = true;
  p4::CowbirdP4Engine& engine = f.AddP4Engine(ec);
  f.Attach(engine, client);
  engine.Start();

  f.sim.RunFor(Millis(1));
  const auto idle_probes = engine.probes_sent();
  EXPECT_LT(idle_probes, 60u);  // ~500 at the fixed 2 us rate

  // A request still completes despite the ramped-down interval.
  sim::SimThread thread(*f.client(0).machine, "app");
  f.sim.Spawn([](Cluster& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    (void)co_await ReadAndWait(ff, cl, 0, thr, 0, 64, kHeap);
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();
  EXPECT_EQ(engine.ops_completed(), 1u);
}

}  // namespace
}  // namespace cowbird
