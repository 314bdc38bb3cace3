// Ablation: TDM probe scheduling across instances (Section 5.4's "more
// complex policies are possible, e.g., to prioritize more active
// applications"). One hot tenant and three idle tenants share a switch:
// plain round-robin spends 3/4 of probe slots on silence; the activity-
// weighted policy concentrates them where requests are.
//
// --jobs N runs the two policy configurations concurrently (default:
// hardware concurrency); rows are emitted in fixed order, so output is
// identical for any N.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/client.h"
#include "p4/engine.h"
#include "sim/parallel.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;
constexpr std::uint64_t kHeap = 0x8000'0000;
constexpr std::uint16_t kRegion = 1;
constexpr net::NodeId kSwitchId = 100;

double RunHotTenant(p4::CowbirdP4Engine::ProbePolicy policy) {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& memory = cluster.memory(0);
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(64));

  p4::CowbirdP4Engine::Config ec;
  ec.switch_node_id = kSwitchId;
  ec.probe_policy = policy;
  p4::CowbirdP4Engine& engine = cluster.AddP4Engine(ec);

  std::vector<core::CowbirdClient*> tenants;
  for (int i = 0; i < 4; ++i) {
    core::CowbirdClient::Config cc;
    cc.layout.base = 0x10000 + static_cast<std::uint64_t>(i) * MiB(8);
    cc.layout.threads = 1;
    tenants.push_back(&cluster.AddClient(0, cc));
    tenants.back()->RegisterRegion(core::RegionInfo{
        kRegion, memory.id(), kPoolBase, pool_mr->rkey, MiB(64)});
    cluster.AttachP4(*tenants.back(), 0x800 + i * 8);
  }
  engine.Start();

  // Only tenant 0 is active; tenants 1-3 are registered but idle.
  sim::SimThread thread(*cluster.client(0).machine, "hot");
  std::uint64_t ops = 0;
  cluster.sim.Spawn([](core::CowbirdClient& cl, sim::SimThread& thr,
                       std::uint64_t& done) -> sim::Task<void> {
    auto& ctx = cl.thread(0);
    const core::PollId poll = ctx.PollCreate();
    Rng rng(9);
    int outstanding = 0;
    for (;;) {
      if (outstanding < 64) {
        auto id = co_await ctx.AsyncRead(thr, kRegion,
                                         rng.Below(4096) * 256, kHeap, 64);
        if (id) {
          ctx.PollAdd(poll, *id);
          ++outstanding;
          continue;
        }
      }
      auto d = co_await ctx.PollWait(thr, poll, 64, 0);
      if (d.empty()) {
        co_await thr.Idle(300);
        continue;
      }
      outstanding -= static_cast<int>(d.size());
      done += d.size();
    }
  }(*tenants[0], thread, ops));

  cluster.sim.RunFor(Millis(2));
  return Mops(ops, Millis(2));
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParallelFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (!flags.Consume(argc, argv, i) || !flags.ok()) {
      std::printf("usage: %s %s\n", argv[0], flags.Usage());
      return 2;
    }
  }

  bench::Banner("Ablation: TDM probe policy",
                "1 hot + 3 idle tenants on one switch");

  const p4::CowbirdP4Engine::ProbePolicy policies[] = {
      p4::CowbirdP4Engine::ProbePolicy::kRoundRobin,
      p4::CowbirdP4Engine::ProbePolicy::kActivityWeighted};
  double mops[2] = {0, 0};
  sim::ParallelFor(flags.Jobs(), 2, [&](int i) {
    mops[i] = RunHotTenant(policies[i]);
  });
  const double rr = mops[0];
  const double weighted = mops[1];

  bench::Table table({"policy", "hot tenant MOPS"});
  table.Row({"round-robin (paper prototype)", bench::Fmt(rr, 2)});
  table.Row({"activity-weighted (future work)", bench::Fmt(weighted, 2)});
  table.Print();

  std::printf("\nShape checks:\n");
  bench::ShapeCheck(weighted > rr * 1.2,
                    "prioritizing active applications recovers the probe "
                    "slots round-robin wastes on idle tenants");
  return 0;
}
