#include "faster/ycsb.h"

#include <memory>
#include <vector>

#include "baselines/redy.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/client.h"
#include "p4/engine.h"
#include "faster/devices_rdma.h"
#include "faster/idevice.h"
#include "faster/store.h"
#include "workload/cluster.h"
#include "workload/generator.h"

namespace cowbird::faster {

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kLocal: return "local-memory";
    case Backend::kSsd: return "ssd";
    case Backend::kOneSidedSync: return "one-sided-sync";
    case Backend::kOneSidedAsync: return "one-sided-async";
    case Backend::kCowbirdSpot: return "cowbird-spot";
    case Backend::kCowbirdP4: return "cowbird-p4";
    case Backend::kRedy: return "redy";
  }
  return "unknown";
}

namespace {

constexpr std::uint64_t kPoolBase = 0x1000'0000;
constexpr std::uint64_t kLocalDeviceBase = 0x3000'0000;
constexpr std::uint64_t kDestBase = 0x8000'0000;
constexpr std::uint64_t kDestStride = MiB(4);
constexpr std::uint64_t kValueScratch = 0x7800'0000;
constexpr std::uint16_t kRegion = 1;
constexpr double kReadFraction = 0.95;

struct YcsbHarness {
  explicit YcsbHarness(const YcsbConfig& config) : cfg(config) {
    workload::ClusterHost& compute = cluster.client(0);
    workload::ClusterHost& memory = cluster.memory(0);
    const Bytes record =
        (16 + cfg.value_size + 7) & ~Bytes{7};
    const Bytes log_size = cfg.records * record * 11 / 10;  // updates grow it
    // Size the device / pool region generously: the log only grows.
    const Bytes device_capacity = log_size * 8;

    FasterStore::Config sc;
    sc.memory_budget =
        RoundPage(static_cast<Bytes>(cfg.memory_fraction *
                                     static_cast<double>(log_size)));
    store = std::make_unique<FasterStore>(compute.mem, sc);

    pool_mr = memory.dev->RegisterMemory(kPoolBase, device_capacity);

    for (int t = 0; t < cfg.threads; ++t) {
      threads.push_back(std::make_unique<sim::SimThread>(
          *compute.machine, "faster-" + std::to_string(t)));
    }

    switch (cfg.backend) {
      case Backend::kLocal:
        for (int t = 0; t < cfg.threads; ++t) {
          devices.push_back(std::make_unique<LocalMemoryDevice>(
              compute.mem, kLocalDeviceBase));
        }
        break;
      case Backend::kSsd: {
        // One physical SSD shared by all threads.
        ssd = std::make_unique<SsdDevice>(cluster.sim, compute.mem,
                                          kLocalDeviceBase);
        break;
      }
      case Backend::kOneSidedSync:
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          devices.push_back(std::make_unique<OneSidedSyncDevice>(
              baselines::OneSidedEndpoint{pair.a, pair.a_send_cq,
                                          pool_mr->rkey},
              kPoolBase));
        }
        break;
      case Backend::kOneSidedAsync:
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          devices.push_back(std::make_unique<OneSidedAsyncDevice>(
              baselines::OneSidedEndpoint{pair.a, pair.a_send_cq,
                                          pool_mr->rkey},
              kPoolBase));
        }
        break;
      case Backend::kCowbirdSpot:
      case Backend::kCowbirdP4: {
        core::CowbirdClient::Config cc;
        cc.layout.base = 0x10000;
        cc.layout.threads = cfg.threads;
        cc.layout.meta_slots = 4096;
        cc.layout.data_capacity = MiB(1);
        cc.layout.resp_capacity = MiB(1);
        client = &cluster.AddClient(0, cc);
        client->RegisterRegion(core::RegionInfo{
            kRegion, memory.id(), kPoolBase, pool_mr->rkey, device_capacity});
        if (cfg.backend == Backend::kCowbirdP4) {
          p4::CowbirdP4Engine& engine =
              cluster.AddP4Engine(p4::CowbirdP4Engine::Config{});
          cluster.Attach(engine, *client);
          engine.Start();
        } else {
          spot::SpotAgent& agent = cluster.AddSpotAgent(cfg.agent);
          cluster.Attach(agent, *client);
          agent.Start();
        }
        for (int t = 0; t < cfg.threads; ++t) {
          devices.push_back(
              std::make_unique<CowbirdDevice>(client->thread(t), kRegion));
        }
        break;
      }
      case Backend::kRedy: {
        redy = std::make_unique<baselines::RedyEngine>(*compute.machine);
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          const int io = redy->AddIoThread(baselines::OneSidedEndpoint{
              pair.a, pair.a_send_cq, pool_mr->rkey});
          devices.push_back(std::make_unique<RedyDevice>(*redy, io, kPoolBase,
                                                         cluster.sim));
        }
        break;
      }
    }
  }

  static Bytes RoundPage(Bytes b) {
    const Bytes page = FasterStore::kSpillPage;
    const Bytes rounded = ((b + page - 1) / page) * page;
    return rounded < 2 * page ? 2 * page : rounded;
  }

  IDevice& DeviceFor(int t) {
    if (cfg.backend == Backend::kSsd) return *ssd;
    return *devices[t];
  }

  std::uint64_t DestSlot(int t, int slot) const {
    return kDestBase + t * kDestStride + static_cast<std::uint64_t>(slot) *
                                             1024;
  }

  // Deterministic value: first 8 bytes are the key.
  void MakeValue(std::uint64_t key, std::vector<std::uint8_t>& out) const {
    out.assign(cfg.value_size, static_cast<std::uint8_t>(key * 131 + 7));
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<std::uint8_t>(key >> (8 * i));
    }
  }

  bool VerifyRecord(std::uint64_t dest, std::uint64_t key) {
    // Record header: key at offset 0; value begins at 16.
    SparseMemory& mem = cluster.client(0).mem;
    const auto stored_key = mem.ReadValue<std::uint64_t>(dest);
    const auto value_key = mem.ReadValue<std::uint64_t>(dest + 16);
    return stored_key == key && value_key == key;
  }

  YcsbConfig cfg;
  workload::Cluster cluster{workload::ClusterSpec{}};
  const rdma::MemoryRegion* pool_mr = nullptr;
  std::unique_ptr<FasterStore> store;
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::unique_ptr<IDevice>> devices;
  std::unique_ptr<SsdDevice> ssd;
  core::CowbirdClient* client = nullptr;
  std::unique_ptr<baselines::RedyEngine> redy;
  std::unique_ptr<workload::ZipfianGenerator> zipf;

  // Run-phase counters.
  std::vector<std::uint64_t> ops;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t verify_failures = 0;
  bool loaded = false;
};

sim::Task<void> LoadPhase(YcsbHarness& h) {
  sim::SimThread& thread = *h.threads[0];
  std::vector<std::uint8_t> value;
  for (std::uint64_t key = 0; key < h.cfg.records; ++key) {
    h.MakeValue(key, value);
    co_await h.store->Upsert(thread, h.DeviceFor(0), key, value);
  }
  // Drain any spill still in flight.
  co_await h.DeviceFor(0).Poll(thread);
  h.loaded = true;
}

sim::Task<void> RunThread(YcsbHarness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  IDevice& device = h.DeviceFor(t);
  Rng rng(h.cfg.seed * 31337 + t);
  std::vector<std::uint8_t> value;
  int outstanding = 0;
  int next_slot = 0;

  while (!h.loaded) co_await thread.Idle(Micros(10));

  for (;;) {
    // Pump completions first so the pipeline never stalls full.
    co_await device.Poll(thread);
    if (outstanding >= kPipelineDepth) {
      co_await thread.Idle(300);
      continue;
    }
    const std::uint64_t key = h.cfg.zipfian
                                  ? h.zipf->NextScrambled(rng)
                                  : rng.Below(h.cfg.records);
    if (rng.NextDouble() < kReadFraction) {
      const int slot = next_slot;
      next_slot = (next_slot + 1) % (kPipelineDepth * 2);
      const std::uint64_t dest = h.DestSlot(t, slot);
      auto status = co_await h.store->Read(
          thread, device, key, dest, [&h, t, key, dest, &outstanding] {
            // Completion runs on this thread's poll path.
            if (!h.VerifyRecord(dest, key)) ++h.verify_failures;
            ++h.remote_reads;
            ++h.ops[t];
            --outstanding;
          });
      switch (status) {
        case FasterStore::ReadStatus::kLocal:
          if (!h.VerifyRecord(dest, key)) ++h.verify_failures;
          ++h.local_reads;
          ++h.ops[t];
          break;
        case FasterStore::ReadStatus::kPending:
          ++outstanding;
          break;
        case FasterStore::ReadStatus::kNotFound:
          ++h.verify_failures;  // all keys were loaded
          break;
      }
    } else {
      h.MakeValue(key, value);
      co_await h.store->Upsert(thread, device, key, value);
      ++h.updates;
      ++h.ops[t];
    }
  }
}

}  // namespace

YcsbResult RunYcsb(const YcsbConfig& config) {
  YcsbHarness h(config);
  if (config.zipfian) {
    // YCSB's theta = 0.99, the generator's default.
    h.zipf = std::make_unique<workload::ZipfianGenerator>(config.records);
  }
  h.ops.assign(config.threads, 0);

  h.cluster.sim.Spawn(LoadPhase(h));
  for (int t = 0; t < config.threads; ++t) {
    h.cluster.sim.Spawn(RunThread(h, t));
  }
  // Let the load complete (virtual time), then warm up and measure.
  while (!h.loaded) h.cluster.sim.RunFor(Millis(1));
  h.cluster.sim.RunFor(config.warmup);

  struct Snap {
    std::uint64_t ops = 0;
    Nanos comm = 0;
    Nanos compute = 0;
    std::uint64_t local = 0, remote = 0, upd = 0;
  };
  auto snapshot = [&h, &config] {
    Snap s;
    for (int t = 0; t < config.threads; ++t) {
      s.ops += h.ops[t];
      s.comm += h.threads[t]->TimeIn(sim::CpuCategory::kCommunication);
      s.compute += h.threads[t]->TimeIn(sim::CpuCategory::kCompute);
    }
    s.local = h.local_reads;
    s.remote = h.remote_reads;
    s.upd = h.updates;
    return s;
  };

  const Snap start = snapshot();
  const Nanos t0 = h.cluster.sim.Now();
  h.cluster.sim.RunFor(config.measure);
  const Snap end = snapshot();
  const Nanos elapsed = h.cluster.sim.Now() - t0;

  YcsbResult result;
  result.ops = end.ops - start.ops;
  result.mops = Mops(result.ops, elapsed);
  const Nanos comm = end.comm - start.comm;
  const Nanos compute = end.compute - start.compute;
  result.comm_ratio =
      comm + compute > 0
          ? static_cast<double>(comm) / static_cast<double>(comm + compute)
          : 0.0;
  result.local_reads = end.local - start.local;
  result.remote_reads = end.remote - start.remote;
  result.updates = end.upd - start.upd;
  const std::uint64_t reads = result.local_reads + result.remote_reads;
  result.remote_read_fraction =
      reads > 0 ? static_cast<double>(result.remote_reads) /
                      static_cast<double>(reads)
                : 0.0;
  result.verify_failures = h.verify_failures;
  return result;
}

}  // namespace cowbird::faster
