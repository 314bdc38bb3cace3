// Quickstart: the smallest complete Cowbird deployment.
//
// One compute node, one memory pool, one spot-VM offload engine, one switch.
// The application issues an async_write and an async_read of remote memory
// using nothing but local-memory operations (Table 2 API); the spot engine
// discovers them by probing the request rings over RDMA and executes the
// transfers. Run it:   ./build/examples/quickstart
#include <cstdio>
#include <string>
#include <vector>

#include "core/client.h"
#include "spot/agent.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;  // pool virtual address
constexpr std::uint64_t kAppBuf = 0x8000'0000;   // app heap on compute node
constexpr std::uint16_t kRegion = 1;

sim::Task<void> Application(core::CowbirdClient& client,
                            sim::SimThread& thread, SparseMemory& memory,
                            sim::Simulation& sim) {
  auto& ctx = client.thread(0);

  // 1. Put a message in compute-node memory and write it to the pool.
  const std::string message = "cowbird says: your CPU is free";
  memory.Write(kAppBuf, std::span<const std::uint8_t>(
                            reinterpret_cast<const std::uint8_t*>(
                                message.data()),
                            message.size()));
  auto write_id = co_await ctx.AsyncWrite(
      thread, kRegion, kAppBuf, /*remote_dest_offset=*/128,
      static_cast<std::uint32_t>(message.size()));
  std::printf("[app %6lld ns] async_write issued (req id seq=%llu)\n",
              static_cast<long long>(sim.Now()),
              static_cast<unsigned long long>(write_id->seq()));

  // 2. Wait for it with the epoll-like notification group API.
  const core::PollId poll = ctx.PollCreate();
  ctx.PollAdd(poll, *write_id);
  while ((co_await ctx.PollWait(thread, poll, 1, Millis(1))).empty()) {
  }
  std::printf("[app %6lld ns] write complete (engine moved the data)\n",
              static_cast<long long>(sim.Now()));

  // 3. Read it back to a different local buffer.
  auto read_id = co_await ctx.AsyncRead(
      thread, kRegion, /*remote_src_offset=*/128, kAppBuf + 4096,
      static_cast<std::uint32_t>(message.size()));
  ctx.PollAdd(poll, *read_id);
  while ((co_await ctx.PollWait(thread, poll, 1, Millis(1))).empty()) {
  }

  std::vector<std::uint8_t> out(message.size());
  memory.Read(kAppBuf + 4096, out);
  std::printf("[app %6lld ns] read complete: \"%.*s\"\n",
              static_cast<long long>(sim.Now()),
              static_cast<int>(out.size()),
              reinterpret_cast<const char*>(out.data()));

  // 4. What did the CPU pay? Only the Cowbird client library.
  std::printf("\ncompute-node CPU spent in communication: %lld ns total\n",
              static_cast<long long>(
                  thread.TimeIn(sim::CpuCategory::kCommunication)));
  std::printf("(a single sync RDMA read would spin ~4000 ns *per access*)\n");
  sim.Halt();
}

}  // namespace

int main() {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& compute = cluster.client(0);
  workload::ClusterHost& memory = cluster.memory(0);

  // Memory pool: register a region and hand out its rkey.
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(16));

  // Compute node: client library with one application thread.
  core::CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  core::CowbirdClient& client = cluster.AddClient(0, cc);
  client.RegisterRegion(core::RegionInfo{kRegion, memory.id(), kPoolBase,
                                         pool_mr->rkey, MiB(16)});

  // Offload engine on the spot node (one core).
  spot::SpotAgent& agent = cluster.AddSpotAgent(spot::SpotAgent::Config{});
  cluster.AttachSpot(agent, client);
  agent.Start();

  sim::SimThread app_thread(*compute.machine, "app");
  cluster.sim.Spawn(
      Application(client, app_thread, compute.mem, cluster.sim));
  cluster.sim.Run();

  std::printf("\nengine stats: %llu probes, %llu ops completed\n",
              static_cast<unsigned long long>(agent.probes_sent()),
              static_cast<unsigned long long>(agent.ops_completed()));
  return 0;
}
