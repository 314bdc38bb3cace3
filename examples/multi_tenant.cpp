// Two tenants, one programmable switch: Cowbird-P4 multiplexes instances
// with time-division round-robin probing (Section 5.4).
//
// Tenant A streams large (1 KiB) reads; tenant B issues small latency-
// sensitive reads. Both are served by the same switch pipeline via separate
// QP sets, resolved through the QPN→instance mapping.
// Run it:   ./build/examples/multi_tenant
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "p4/engine.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;
constexpr std::uint64_t kAppBuf = 0x8000'0000;
constexpr std::uint16_t kRegion = 1;

struct TenantStats {
  std::uint64_t ops = 0;
  Nanos latency_sum = 0;
};

sim::Task<void> Tenant(core::CowbirdClient& client, sim::SimThread& thread,
                       std::uint32_t record, const char* name,
                       TenantStats& stats) {
  auto& ctx = client.thread(0);
  const core::PollId poll = ctx.PollCreate();
  Rng rng(record);
  for (;;) {
    const Nanos begin = thread.simulation().Now();
    auto id = co_await ctx.AsyncRead(thread, kRegion,
                                     rng.Below(4096) * 2048,
                                     kAppBuf + record, record);
    if (!id) {
      co_await thread.Idle(Micros(2));
      continue;
    }
    ctx.PollAdd(poll, *id);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(1))).empty()) {
    }
    stats.latency_sum += thread.simulation().Now() - begin;
    ++stats.ops;
    (void)name;
  }
}

}  // namespace

int main() {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& memory = cluster.memory(0);
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(64));

  p4::CowbirdP4Engine& engine =
      cluster.AddP4Engine(p4::CowbirdP4Engine::Config{});

  std::vector<core::CowbirdClient*> tenants;
  for (int i = 0; i < 2; ++i) {
    core::CowbirdClient::Config cc;
    cc.layout.base = 0x10000 + static_cast<std::uint64_t>(i) * MiB(8);
    cc.layout.threads = 1;
    tenants.push_back(&cluster.AddClient(0, cc));
    tenants.back()->RegisterRegion(core::RegionInfo{
        kRegion, memory.id(), kPoolBase, pool_mr->rkey, MiB(64)});
    cluster.Attach(engine, *tenants.back());
  }
  engine.Start();

  sim::Machine& compute = *cluster.client(0).machine;
  sim::SimThread thread_a(compute, "tenant-a");
  sim::SimThread thread_b(compute, "tenant-b");
  TenantStats stats_a, stats_b;
  cluster.sim.Spawn(Tenant(*tenants[0], thread_a, 1024, "A", stats_a));
  cluster.sim.Spawn(Tenant(*tenants[1], thread_b, 64, "B", stats_b));

  cluster.sim.RunFor(Millis(3));

  std::printf("one switch pipeline, two tenants, TDM probing:\n");
  std::printf("  tenant A (1 KiB streaming): %6llu reads, avg %5.1f us\n",
              static_cast<unsigned long long>(stats_a.ops),
              stats_a.ops ? stats_a.latency_sum / 1000.0 /
                                static_cast<double>(stats_a.ops)
                          : 0.0);
  std::printf("  tenant B (64 B point gets): %6llu reads, avg %5.1f us\n",
              static_cast<unsigned long long>(stats_b.ops),
              stats_b.ops ? stats_b.latency_sum / 1000.0 /
                                static_cast<double>(stats_b.ops)
                          : 0.0);
  std::printf("switch totals: %llu probes, %llu ops, %llu recycled packets\n",
              static_cast<unsigned long long>(engine.probes_sent()),
              static_cast<unsigned long long>(engine.ops_completed()),
              static_cast<unsigned long long>(engine.packets_recycled()));
  return 0;
}
