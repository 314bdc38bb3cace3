// Multi-engine sharding: one deployment's instances spread across several
// concurrently running offload engines, moved between them through the
// cluster's Detach and Attach when an engine is decommissioned or dies.
//
// Two spot agents run on the same harvested node (disjoint staging arenas,
// separate QPs/CQs); two client instances on the compute node are sharded
// one-per-engine. Detaching an instance exports its red-block progress
// snapshot, and the engine it attaches to next resumes it from there.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "offload/progress.h"
#include "spot/agent.h"

namespace cowbird::spot {
namespace {

using core::CowbirdClient;
using core::RegionInfo;
using core::ReqId;
using testing::Pattern;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

class MultiEngineTest : public testing::ClusterTest {
 public:
  MultiEngineTest() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    agent_a_ = &f_.AddSpotAgent(SpotAgent::Config{});
    agent_b_ = &f_.AddSpotAgent(SpotAgent::Config{});

    for (const std::uint64_t layout_base : {0x10000, 0x800000}) {
      clients_.push_back(
          &f_.AddClient(0, testing::SmallRings(1, layout_base)));
      clients_.back()->RegisterRegion(pool);
    }
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

  // Moves client 0's instance from agent A to agent B; `halt` is a crash.
  void MoveToB(bool halt = false) {
    const offload::InstanceProgress snapshot =
        f_.Detach(*agent_a_, *clients_[0], halt).value();
    f_.Attach(*agent_b_, *clients_[0], {}, &snapshot);
  }

  SpotAgent* agent_a_ = nullptr;
  SpotAgent* agent_b_ = nullptr;
  std::vector<CowbirdClient*> clients_;
};

TEST_F(MultiEngineTest, DisjointShardsServedConcurrently) {
  f_.Attach(*agent_a_, *clients_[0]);
  f_.Attach(*agent_b_, *clients_[1]);

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
  f_.Attach(*agent_a_, *clients_[0]);
  f_.Attach(*agent_b_, *clients_[1]);

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
    t.MoveToB();

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
  f_.Attach(*agent_a_, *clients_[0]);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    const auto data = Pattern(300, 7);
    t.f_.client(0).mem.Write(kHeap, data);
    co_await t.WriteAndWait(0, kHeap, 0x3000, 300);

    // Drain A before moving (lossless handoff); A keeps running.
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }
    t.MoveToB();

    auto got = co_await t.ReadAndWait(0, 0x3000, 300, kHeap + 0x10000);
    EXPECT_EQ(got, data);
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

// The cluster is the instance registry: Attach and Detach are the record of
// which engine serves an instance. Moving an instance between two live
// engines hands the second the snapshot the first exported, and leaves the
// first with nothing of the instance.
using InstanceRegistry = MultiEngineTest;

TEST_F(InstanceRegistry, ReassignMovesSnapshotBetweenEngines) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  f_.Attach(*agent_a_, *clients_[0]);

  f_.sim.Spawn([](InstanceRegistry& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      const auto data = Pattern(200, 700 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 200);
    }
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }

    const offload::InstanceProgress snapshot =
        t.f_.Detach(*t.agent_a_, *t.clients_[0]).value();
    EXPECT_EQ(snapshot.threads[0].write_progress, 5u);
    EXPECT_FALSE(t.agent_a_->ExportProgress(inst0).has_value());
    t.f_.Attach(*t.agent_b_, *t.clients_[0], {}, &snapshot);
    EXPECT_EQ(t.agent_b_->ExportProgress(inst0).value().threads,
              snapshot.threads);

    // A stays up but no longer serves the instance; B does.
    const auto a_ops = t.agent_a_->ops_completed();
    auto got = co_await t.ReadAndWait(0, 4 * 1024, 200, kHeap + 0x10000);
    EXPECT_EQ(got, Pattern(200, 704));
    EXPECT_EQ(t.agent_a_->ops_completed(), a_ops);
    EXPECT_EQ(t.agent_b_->ops_completed(), 1u);
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
}

TEST_F(MultiEngineTest, MidFlightCrashMigratesWithoutLostOrDuplicatedWork) {
  // Unlike the graceful decommission above, the engine dies with an
  // operation in flight: no StopProbing, no InstanceDrained wait. The
  // conservative crash export plus the attach-time reconcile against the
  // published red block (which may have advanced between ExportProgress and
  // the survivor's attach) must neither lose the in-flight write nor apply
  // any completed one twice.
  f_.Attach(*agent_a_, *clients_[0]);

  f_.sim.Spawn([](MultiEngineTest& t) -> sim::Task<void> {
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
    t.MoveToB(/*halt=*/true);

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
  }(*this));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

TEST_F(MultiEngineTest, SurvivorResumesFromTheExportedSnapshot) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  f_.Attach(*agent_a_, *clients_[0]);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      const auto data = Pattern(128, 600 + i);
      t.f_.client(0).mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 128);
      auto got = co_await t.ReadAndWait(0, i * 1024, 128, kHeap + 0x10000);
      EXPECT_EQ(got, data);
    }
    t.agent_a_->StopProbing();
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }

    // A drained export is exactly the client's red block, and the engine
    // attached with it continues from exactly that point.
    const offload::InstanceProgress snapshot =
        t.f_.Detach(*t.agent_a_, *t.clients_[0]).value();
    EXPECT_EQ(snapshot.threads, t.f_.PublishedProgress(*t.clients_[0]));
    EXPECT_EQ(snapshot.threads[0].write_progress, 4u);
    EXPECT_EQ(snapshot.threads[0].read_progress, 4u);
    t.f_.Attach(*t.agent_b_, *t.clients_[0], {}, &snapshot);
    EXPECT_EQ(t.agent_b_->ExportProgress(inst0).value().threads,
              snapshot.threads);

    auto got = co_await t.ReadAndWait(0, 3 * 1024, 128, kHeap + 0x10000);
    EXPECT_EQ(got, Pattern(128, 603));
    EXPECT_EQ(t.agent_b_->ops_completed(), 1u);
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
}

// An undrained graceful handoff: the export's read frontier only covers
// batches whose ACK agent A saw, so reads A delivered (and the client
// retired) ride along as pending. The attach reconciles them against the
// client's red block, so across both agents every read executes once.
TEST_F(MultiEngineTest, UndrainedHandoffExecutesEveryReadOnce) {
  f_.Attach(*agent_a_, *clients_[0]);

  f_.sim.Spawn([](MultiEngineTest& t) -> sim::Task<void> {
    constexpr int kReads = 400;
    constexpr int kWindow = 8;
    constexpr std::uint32_t kLen = 256;
    auto& ctx = t.clients_[0]->thread(0);
    sim::SimThread& thread = *t.app_thread_;
    const core::PollId poll = ctx.PollCreate();
    int issued = 0;
    int retired = 0;
    while (retired < kReads) {
      if (issued < kReads && issued - retired < kWindow) {
        const auto slot = static_cast<std::uint64_t>(issued % kWindow);
        const auto id = co_await ctx.AsyncRead(
            thread, kRegion, static_cast<std::uint64_t>(issued) * kLen,
            kHeap + 0x10000 + slot * kLen, kLen);
        if (id.has_value()) {
          ctx.PollAdd(poll, *id);
          if (++issued == kReads / 2) {
            const offload::InstanceProgress snapshot =
                t.f_.Detach(*t.agent_a_, *t.clients_[0]).value();
            co_await thread.Idle(Micros(20));
            t.f_.Attach(*t.agent_b_, *t.clients_[0], {}, &snapshot);
          }
          continue;
        }
      }
      const auto done = co_await ctx.PollWait(thread, poll, kWindow, 0);
      retired += static_cast<int>(done.size());
      if (done.empty()) co_await thread.Idle(Micros(1));
    }
    t.f_.sim.Halt();
  }(*this));
  f_.sim.Run();
  EXPECT_GT(agent_a_->ops_completed(), 0u);
  EXPECT_EQ(agent_a_->ops_completed() + agent_b_->ops_completed(), 400u);
}

}  // namespace
}  // namespace cowbird::spot
