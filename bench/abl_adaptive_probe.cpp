// Ablation: adaptive probe ramp-up (the Section 5.2 extension: "start at a
// low baseline rate and ramp up only when activity is detected").
//
// A bursty client issues a read burst, sleeps 200 us, repeats. Fixed fast
// probing pays constant probe bandwidth; fixed slow probing taxes first-
// request latency; adaptive probing gets (nearly) the best of both.
//
// --jobs N runs the three policy configurations concurrently (default:
// hardware concurrency); rows are emitted in fixed order, so output is
// identical for any N.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "bench_util.h"
#include "core/client.h"
#include "sim/parallel.h"
#include "spot/agent.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;
constexpr std::uint64_t kHeap = 0x8000'0000;
constexpr std::uint16_t kRegion = 1;

struct Result {
  double first_latency_us = 0;   // avg latency of the first read of a burst
  double steady_latency_us = 0;  // avg latency of the rest of the burst
  double probes_per_ms = 0;
};

Result RunBursty(bool adaptive, Nanos base_interval) {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& memory = cluster.memory(0);
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(16));
  core::CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  core::CowbirdClient& client = cluster.AddClient(0, cc);
  client.RegisterRegion(core::RegionInfo{kRegion, memory.id(), kPoolBase,
                                         pool_mr->rkey, MiB(16)});
  spot::SpotAgent::Config ac;
  ac.probe_interval = base_interval;
  ac.adaptive_probe = adaptive;
  spot::SpotAgent& agent = cluster.AddSpotAgent(ac);
  cluster.AttachSpot(agent, client);
  agent.Start();

  sim::SimThread thread(*cluster.client(0).machine, "app");
  sim::Simulation& loop = cluster.sim;
  double first_sum = 0, steady_sum = 0;
  int bursts = 0, steady_count = 0;
  loop.Spawn([](sim::Simulation& sim, core::CowbirdClient& cl,
                sim::SimThread& thr, double& sum, int& count, double& ssum,
                int& scount) -> sim::Task<void> {
    auto& ctx = cl.thread(0);
    const core::PollId poll = ctx.PollCreate();
    Rng rng(5);
    for (int burst = 0; burst < 40; ++burst) {
      co_await thr.Idle(Micros(200));  // idle gap: adaptive backs off
      for (int i = 0; i < 16; ++i) {
        const Nanos begin = sim.Now();
        auto id = co_await ctx.AsyncRead(thr, kRegion, rng.Below(1024) * 256,
                                         kHeap, 64);
        if (!id) {
          co_await thr.Idle(Micros(2));
          --i;
          continue;
        }
        ctx.PollAdd(poll, *id);
        while ((co_await ctx.PollWait(thr, poll, 1, Millis(1))).empty()) {
        }
        if (i == 0) {
          sum += static_cast<double>(sim.Now() - begin) / 1000.0;
          ++count;
        } else {
          ssum += static_cast<double>(sim.Now() - begin) / 1000.0;
          ++scount;
        }
      }
    }
    sim.Halt();
  }(loop, client, thread, first_sum, bursts, steady_sum, steady_count));
  loop.Run();

  Result r;
  r.first_latency_us = bursts ? first_sum / bursts : 0;
  r.steady_latency_us = steady_count ? steady_sum / steady_count : 0;
  r.probes_per_ms =
      static_cast<double>(agent.probes_sent()) / (loop.Now() / 1e6);
  return r;
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

  bench::Banner("Ablation: adaptive probing",
                "bursty workload — first-request latency vs probe overhead");

  struct Config {
    bool adaptive;
    Nanos base_interval;
  };
  const Config configs[] = {
      {false, Micros(2)}, {false, Micros(32)}, {true, Micros(2)}};
  std::vector<Result> results(3);
  sim::ParallelFor(flags.Jobs(), 3, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        RunBursty(configs[i].adaptive, configs[i].base_interval);
  });
  const Result& fast = results[0];
  const Result& slow = results[1];
  const Result& adaptive = results[2];

  bench::Table table({"policy", "first-read (us)", "steady (us)",
                      "probes/ms"});
  table.Row({"fixed 2us", bench::Fmt(fast.first_latency_us, 1),
             bench::Fmt(fast.steady_latency_us, 1),
             bench::Fmt(fast.probes_per_ms, 0)});
  table.Row({"fixed 32us", bench::Fmt(slow.first_latency_us, 1),
             bench::Fmt(slow.steady_latency_us, 1),
             bench::Fmt(slow.probes_per_ms, 0)});
  table.Row({"adaptive 2-64us", bench::Fmt(adaptive.first_latency_us, 1),
             bench::Fmt(adaptive.steady_latency_us, 1),
             bench::Fmt(adaptive.probes_per_ms, 0)});
  table.Print();

  // This is exactly Section 5.2's stated trade-off: "users [can] tradeoff
  // extra probe memory accesses with worst-case completion latency while
  // maintaining high throughput". Adaptive pays the worst case only on the
  // first request of a burst, then snaps back to fast probing.
  std::printf("\nShape checks:\n");
  bench::ShapeCheck(adaptive.probes_per_ms < fast.probes_per_ms * 0.7,
                    "adaptive probing cuts idle probe traffic substantially");
  bench::ShapeCheck(adaptive.steady_latency_us < slow.steady_latency_us,
                    "after ramp-up, in-burst latency returns to the "
                    "fast-probe level (throughput maintained)");
  bench::ShapeCheck(adaptive.first_latency_us > fast.first_latency_us,
                    "the saved probes are paid for in worst-case first-"
                    "request latency — the knob the paper describes");
  return 0;
}
