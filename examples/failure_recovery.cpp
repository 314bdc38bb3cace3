// Fault tolerance demo, two failure domains:
//
// Part 1 (Section 5.3): 1% of all RDMA packets are dropped on every link
// while a client writes and reads back 500 records through Cowbird-P4.
// Go-Back-N recovery (PSN rewind + pending-FIFO replay in the switch, plus
// host-side duplicate absorption) delivers every byte intact.
//
// Part 2 (engine decommission): a second instance is served by a fleet of
// two Cowbird-Spot agents under the same packet loss. Mid-run the cluster
// detaches the instance from agent A — exporting its red-block progress
// snapshot — and attaches it to agent B, which resumes probing from
// exactly that point. The client never notices: same API, same counters,
// every record still verifies.
//
// Run it:   ./build/examples/failure_recovery
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "p4/engine.h"
#include "spot/agent.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;
constexpr std::uint64_t kSpotPoolBase = 0x200'0000;
constexpr std::uint64_t kAppBuf = 0x8000'0000;
constexpr std::uint16_t kRegion = 1;

int parts_done = 0;

void PartDone(sim::Simulation& sim) {
  if (++parts_done == 2) sim.Halt();
}

sim::Task<void> Run(core::CowbirdClient& client, sim::SimThread& thread,
                    SparseMemory& memory, sim::Simulation& sim,
                    int& verified, int& corrupt) {
  auto& ctx = client.thread(0);
  const core::PollId poll = ctx.PollCreate();
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(rng.Between(16, 1500));
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
    memory.Write(kAppBuf, data);

    std::optional<core::ReqId> id;
    while (!(id = co_await ctx.AsyncWrite(thread, kRegion, kAppBuf, i * 2048,
                                          len))) {
      co_await thread.Idle(Micros(5));
    }
    ctx.PollAdd(poll, *id);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(2))).empty()) {
    }

    while (!(id = co_await ctx.AsyncRead(thread, kRegion, i * 2048,
                                         kAppBuf + 4096, len))) {
      co_await thread.Idle(Micros(5));
    }
    ctx.PollAdd(poll, *id);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(2))).empty()) {
    }

    std::vector<std::uint8_t> out(len);
    memory.Read(kAppBuf + 4096, out);
    if (out == data) {
      ++verified;
    } else {
      ++corrupt;
    }
  }
  PartDone(sim);
}

// Part 2 driver: write+read-back rounds through agent A; halfway through,
// decommission it and move the instance to agent B.
sim::Task<void> RunWithFailover(core::CowbirdClient& client,
                                sim::SimThread& thread, SparseMemory& memory,
                                workload::Cluster& cluster,
                                spot::SpotAgent& agent_a,
                                spot::SpotAgent& agent_b, int& verified,
                                int& corrupt, bool& migrated_ok) {
  const std::uint32_t instance_id = client.descriptor().instance_id;
  auto& ctx = client.thread(0);
  const core::PollId poll = ctx.PollCreate();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    if (i == 100) {
      // Decommission agent A gracefully: stop probing, let in-flight work
      // drain, then detach. Agent B's attach resumes from the red-block
      // snapshot A exported.
      agent_a.StopProbing();
      while (!agent_a.InstanceDrained(instance_id)) {
        co_await thread.Idle(Micros(10));
      }
      const auto snapshot = cluster.Detach(agent_a, client);
      migrated_ok = snapshot.has_value();
      if (migrated_ok) cluster.Attach(agent_b, client, {}, &*snapshot);
    }
    const std::uint32_t len =
        static_cast<std::uint32_t>(rng.Between(16, 1500));
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
    memory.Write(kAppBuf + 0x10000, data);

    std::optional<core::ReqId> id;
    while (!(id = co_await ctx.AsyncWrite(thread, kRegion,
                                          kAppBuf + 0x10000, i * 2048,
                                          len))) {
      co_await thread.Idle(Micros(5));
    }
    ctx.PollAdd(poll, *id);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(2))).empty()) {
    }

    while (!(id = co_await ctx.AsyncRead(thread, kRegion, i * 2048,
                                         kAppBuf + 0x14000, len))) {
      co_await thread.Idle(Micros(5));
    }
    ctx.PollAdd(poll, *id);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(2))).empty()) {
    }

    std::vector<std::uint8_t> out(len);
    memory.Read(kAppBuf + 0x14000, out);
    if (out == data) {
      ++verified;
    } else {
      ++corrupt;
    }
  }
  PartDone(cluster.sim);
}

}  // namespace

int main() {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& compute = cluster.client(0);
  workload::ClusterHost& memory = cluster.memory(0);
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(16));
  const auto* spot_pool_mr = memory.dev->RegisterMemory(kSpotPoolBase, MiB(16));

  // 1% RDMA loss on every host-facing link, both directions.
  auto rng = std::make_shared<Rng>(1234);
  auto lossy = [rng](const net::Packet& p) {
    return rdma::LooksLikeRdma(p) && rng->Bernoulli(0.01);
  };
  for (workload::ClusterHost* host : {&compute, &memory, &cluster.spot()}) {
    cluster.sw().EgressLink(host->nic.switch_port()).set_drop_filter(lossy);
  }

  // ---- Part 1: packet loss through Cowbird-P4 -------------------------
  core::CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  core::CowbirdClient& client = cluster.AddClient(0, cc);
  client.RegisterRegion(core::RegionInfo{kRegion, memory.id(), kPoolBase,
                                         pool_mr->rkey, MiB(16)});

  p4::CowbirdP4Engine& engine =
      cluster.AddP4Engine(p4::CowbirdP4Engine::Config{});
  cluster.Attach(engine, client);
  engine.Start();

  // ---- Part 2: engine decommission across a spot-agent fleet ---------
  core::CowbirdClient::Config sc;
  sc.layout.base = 0x400000;
  sc.layout.threads = 1;
  core::CowbirdClient& spot_client = cluster.AddClient(0, sc);
  spot_client.RegisterRegion(core::RegionInfo{
      kRegion, memory.id(), kSpotPoolBase, spot_pool_mr->rkey, MiB(16)});

  spot::SpotAgent& agent_a = cluster.AddSpotAgent(spot::SpotAgent::Config{});
  spot::SpotAgent& agent_b = cluster.AddSpotAgent(spot::SpotAgent::Config{});

  cluster.Attach(agent_a, spot_client);
  agent_a.Start();
  agent_b.Start();

  sim::Simulation& sim = cluster.sim;
  sim::SimThread thread(*compute.machine, "app");
  sim::SimThread spot_app(*compute.machine, "app-spot");
  int verified = 0, corrupt = 0;
  int spot_verified = 0, spot_corrupt = 0;
  bool migrated_ok = false;
  sim.Spawn(Run(client, thread, compute.mem, sim, verified, corrupt));
  sim.Spawn(RunWithFailover(spot_client, spot_app, compute.mem, cluster,
                            agent_a, agent_b, spot_verified, spot_corrupt,
                            migrated_ok));
  sim.Run();
  std::printf("Part 1 — 500 write+read-back rounds under 1%% loss (P4):\n");
  std::printf("  verified intact : %d\n", verified);
  std::printf("  corrupt         : %d\n", corrupt);
  std::printf("  GBN recoveries  : %llu (switch rewound and replayed)\n",
              static_cast<unsigned long long>(engine.recoveries()));
  std::printf("Part 2 — 200 rounds, engine A stopped at round 100 (spot):\n");
  std::printf("  verified intact : %d\n", spot_verified);
  std::printf("  corrupt         : %d\n", spot_corrupt);
  std::printf("  migrated        : %s (A ops=%llu, B ops=%llu)\n",
              migrated_ok ? "yes" : "NO",
              static_cast<unsigned long long>(agent_a.ops_completed()),
              static_cast<unsigned long long>(agent_b.ops_completed()));
  std::printf("  virtual time    : %.2f ms\n", sim.Now() / 1e6);
  const bool ok = corrupt == 0 && spot_corrupt == 0 && migrated_ok &&
                  agent_b.ops_completed() > 0;
  return ok ? 0 : 1;
}
