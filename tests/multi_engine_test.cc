// Multi-engine sharding: one deployment's instances spread across several
// concurrently running offload engines by an InstanceRegistry, with
// registry-driven migration when an engine is decommissioned.
//
// Two spot agents run on the same harvested node (disjoint staging arenas,
// separate QPs/CQs); two client instances on the compute node are sharded
// one-per-engine. Stopping an engine exports the red-block progress
// snapshot through the registry and the surviving engine resumes the
// instance from it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "offload/registry.h"
#include "spot/agent.h"

namespace cowbird::spot {
namespace {

using core::CowbirdClient;
using core::RegionInfo;
using core::ReqId;
using testing::Pattern;
using workload::Cluster;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

class MultiEngineTest : public testing::ClusterTest {
 public:
  MultiEngineTest() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    SpotAgent::Config config_a;
    config_a.staging_base = 0x4000'0000;
    SpotAgent::Config config_b;
    config_b.staging_base = 0x8000'0000;
    agent_a_ = &f_.AddSpotAgent(config_a);
    agent_b_ = &f_.AddSpotAgent(config_b);

    for (const std::uint64_t layout_base : {0x10000, 0x800000}) {
      clients_.push_back(
          &f_.AddClient(0, testing::SmallRings(1, layout_base)));
      clients_.back()->RegisterRegion(pool);
    }

    // The registry sees every engine through a backend-agnostic binding:
    // attach wires fresh QPs and resumes from the snapshot, detach exports
    // the snapshot and deactivates the instance.
    engine_a_ = registry_.AddEngine(f_.SpotBinding(*agent_a_, "spot-a"));
    engine_b_ = registry_.AddEngine(f_.SpotBinding(*agent_b_, "spot-b"));
    agent_a_->Start();
    agent_b_->Start();
  }

  sim::Task<std::vector<std::uint8_t>> ReadAndWait(int client_index,
                                                   std::uint64_t offset,
                                                   std::uint32_t len,
                                                   std::uint64_t dest) {
    return ClusterTest::ReadAndWait(*clients_[client_index], 0, offset, len,
                                    dest);
  }

  sim::Task<ReqId> WriteAndWait(int client_index, std::uint64_t src,
                                std::uint64_t off, std::uint32_t len) {
    return ClusterTest::WriteAndWait(*clients_[client_index], 0, src, off,
                                     len);
  }

  SpotAgent* agent_a_ = nullptr;
  SpotAgent* agent_b_ = nullptr;
  std::vector<CowbirdClient*> clients_;
  offload::InstanceRegistry registry_;
  offload::EngineId engine_a_ = offload::kNoEngine;
  offload::EngineId engine_b_ = offload::kNoEngine;
};

TEST_F(MultiEngineTest, DisjointShardsServedConcurrently) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  const std::uint32_t id1 = clients_[1]->descriptor().instance_id;

  // Least-loaded placement spreads the two instances one-per-engine.
  const auto placed0 = registry_.AddInstance(id0);
  const auto placed1 = registry_.AddInstance(id1);
  ASSERT_NE(placed0, offload::kNoEngine);
  ASSERT_NE(placed1, offload::kNoEngine);
  EXPECT_NE(placed0, placed1);
  EXPECT_EQ(registry_.InstancesOn(placed0), std::vector<std::uint32_t>{id0});
  EXPECT_EQ(registry_.InstancesOn(placed1), std::vector<std::uint32_t>{id1});

  const auto d0 = Pattern(256, 1);
  const auto d1 = Pattern(512, 2);
  f_.memory(0).mem.Write(kPoolBase + 0x2000, d0);
  f_.client(0).mem.Write(kHeap, d1);

  int finished = 0;
  f_.sim.Spawn([](MultiEngineTest& t, const std::vector<std::uint8_t>& want,
                  int& count) -> sim::Task<void> {
    auto got = co_await t.ReadAndWait(0, 0x2000, 256, kHeap + 0x10000);
    EXPECT_EQ(got, want);
    if (++count == 2) t.f_.sim.Halt();
  }(*this, d0, finished));
  f_.sim.Spawn([](MultiEngineTest& t, const std::vector<std::uint8_t>& want,
                  int& count) -> sim::Task<void> {
    co_await t.WriteAndWait(1, kHeap, 0x8000, 512);
    auto got = co_await t.ReadAndWait(1, 0x8000, 512, kHeap + 0x20000);
    EXPECT_EQ(got, want);
    if (++count == 2) t.f_.sim.Halt();
  }(*this, d1, finished));
  f_.sim.Run();

  // Both engines did real work for their own shard.
  EXPECT_GT(agent_a_->probes_sent(), 0u);
  EXPECT_GT(agent_b_->probes_sent(), 0u);
  EXPECT_GE(agent_a_->ops_completed(), 1u);
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

TEST_F(MultiEngineTest, StoppedEngineMigratesInstanceToSurvivor) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  const std::uint32_t id1 = clients_[1]->descriptor().instance_id;
  ASSERT_EQ(registry_.AddInstance(id0, engine_a_), engine_a_);
  ASSERT_EQ(registry_.AddInstance(id1, engine_b_), engine_b_);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    // Phase 1: instance 0 does work through engine A.
    for (int i = 0; i < 8; ++i) {
      const auto data = Pattern(200, 100 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 200);
      auto got = co_await t.ReadAndWait(0, i * 1024, 200, kHeap + 0x10000);
      EXPECT_EQ(got, data) << "pre-migration iteration " << i;
    }
    const auto a_ops = t.agent_a_->ops_completed();
    EXPECT_GT(a_ops, 0u);

    // Decommission engine A gracefully: stop probing, drain, migrate.
    t.agent_a_->StopProbing();
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }
    const auto migrated = t.registry_.StopEngine(t.engine_a_);
    EXPECT_EQ(migrated, std::vector<std::uint32_t>{inst0});
    EXPECT_EQ(t.registry_.EngineOf(inst0), t.engine_b_);
    EXPECT_EQ(t.registry_.live_engines(), 1u);

    // Phase 2: the same instance keeps working, now served by engine B
    // resuming from the exported red-block snapshot.
    const auto b_ops = t.agent_b_->ops_completed();
    for (int i = 0; i < 8; ++i) {
      const auto data = Pattern(200, 200 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, 0x40000 + i * 1024, 200);
      auto got = co_await t.ReadAndWait(0, 0x40000 + i * 1024, 200,
                                        kHeap + 0x10000);
      EXPECT_EQ(got, data) << "post-migration iteration " << i;
    }
    EXPECT_EQ(t.agent_a_->ops_completed(), a_ops);  // A stayed stopped
    EXPECT_GT(t.agent_b_->ops_completed(), b_ops);  // B took over
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
}

TEST_F(MultiEngineTest, ExplicitReassignMovesLiveInstance) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  ASSERT_EQ(registry_.AddInstance(id0, engine_a_), engine_a_);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    const auto data = Pattern(300, 7);
    t.f_.client(0).mem.Write(kHeap, data);
    co_await t.WriteAndWait(0, kHeap, 0x3000, 300);

    // Drain A before moving (lossless handoff), then Reassign.
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }
    EXPECT_TRUE(t.registry_.Reassign(inst0, t.engine_b_));
    EXPECT_EQ(t.registry_.EngineOf(inst0), t.engine_b_);

    auto got = co_await t.ReadAndWait(0, 0x3000, 300, kHeap + 0x10000);
    EXPECT_EQ(got, data);
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

TEST_F(MultiEngineTest, MidFlightCrashMigratesWithoutLostOrDuplicatedWork) {
  // Unlike the graceful decommission above, the engine dies with an
  // operation in flight: no StopProbing, no InstanceDrained wait. The
  // conservative crash export plus the attach-time reconcile against the
  // published red block (which may have advanced between ExportProgress and
  // the survivor's attach) must neither lose the in-flight write nor apply
  // any completed one twice.
  const std::uint32_t inst = clients_[0]->descriptor().instance_id;
  offload::InstanceRegistry crash_reg;
  const auto crash_a = crash_reg.AddEngine(
      f_.SpotBinding(*agent_a_, "crash-a", Cluster::Detach::kCrash));
  const auto crash_b = crash_reg.AddEngine(
      f_.SpotBinding(*agent_b_, "crash-b", Cluster::Detach::kCrash));
  ASSERT_EQ(crash_reg.AddInstance(inst, crash_a), crash_a);

  f_.sim.Spawn([](MultiEngineTest& t, offload::InstanceRegistry& reg,
                  offload::EngineId ea, offload::EngineId eb,
                  std::uint32_t inst0) -> sim::Task<void> {
    // Durable pre-crash history: six completed writes.
    for (int i = 0; i < 6; ++i) {
      const auto data = Pattern(200, 300 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 200);
    }
    const auto a_ops = t.agent_a_->ops_completed();
    EXPECT_GT(a_ops, 0u);

    // Post one more write, let A fetch its metadata but not finish it,
    // then kill A. The client has freed the metadata slot by then, so the
    // op survives only through the snapshot's pending list (or, if A had
    // not consumed it yet, through the survivor re-parsing the rings).
    auto& ctx = t.clients_[0]->thread(0);
    const auto inflight = Pattern(200, 399);
    t.f_.client(0).mem.Write(kHeap + 0x1000, inflight);
    std::optional<ReqId> id;
    while (!(id = co_await ctx.AsyncWrite(*t.app_thread_, kRegion,
                                          kHeap + 0x1000, 6 * 1024, 200))) {
      co_await t.app_thread_->Idle(Micros(5));
    }
    co_await t.app_thread_->Idle(Micros(3));
    const auto migrated = reg.StopEngine(ea);
    EXPECT_EQ(migrated, std::vector<std::uint32_t>{inst0});
    EXPECT_EQ(reg.EngineOf(inst0), eb);
    EXPECT_EQ(reg.live_engines(), 1u);

    // The in-flight write still completes, exactly once, on the survivor.
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    for (;;) {
      auto done = co_await ctx.PollWait(*t.app_thread_, poll, 1, Millis(5));
      if (!done.empty()) break;
    }
    EXPECT_EQ(t.agent_a_->ops_completed(), a_ops);  // A is dead

    // Nothing lost: every pre-crash write and the in-flight one read back
    // intact through the survivor.
    for (int i = 0; i < 6; ++i) {
      auto got = co_await t.ReadAndWait(0, i * 1024, 200, kHeap + 0x10000);
      EXPECT_EQ(got, Pattern(200, 300 + i)) << "pre-crash write " << i;
    }
    auto got = co_await t.ReadAndWait(0, 6 * 1024, 200, kHeap + 0x10000);
    EXPECT_EQ(got, inflight);

    // Nothing duplicated: the rings stay in lockstep with the survivor's
    // resumed counters, so fresh traffic runs at full health.
    for (int i = 0; i < 4; ++i) {
      const auto data = Pattern(200, 500 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, 0x40000 + i * 1024, 200);
      auto back = co_await t.ReadAndWait(0, 0x40000 + i * 1024, 200,
                                         kHeap + 0x12000);
      EXPECT_EQ(back, data) << "post-crash iteration " << i;
    }
    t.f_.sim.Halt();
  }(*this, crash_reg, crash_a, crash_b, inst));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

}  // namespace
}  // namespace cowbird::spot
