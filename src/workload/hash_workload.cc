#include "workload/hash_workload.h"

#include <deque>
#include <memory>
#include <vector>

#include "baselines/aifm.h"
#include "baselines/onesided.h"
#include "baselines/twosided.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "net/flow.h"
#include "p4/engine.h"
#include "workload/cluster.h"
#include "workload/generator.h"

namespace cowbird::workload {

const char* ParadigmName(Paradigm p) {
  switch (p) {
    case Paradigm::kLocalMemory: return "local-memory";
    case Paradigm::kTwoSidedSync: return "two-sided-sync";
    case Paradigm::kOneSidedSync: return "one-sided-sync";
    case Paradigm::kOneSidedAsync: return "one-sided-async";
    case Paradigm::kCowbirdNoBatch: return "cowbird-nobatch";
    case Paradigm::kCowbird: return "cowbird";
    case Paradigm::kCowbirdP4: return "cowbird-p4";
    case Paradigm::kAifm: return "aifm";
  }
  return "unknown";
}

namespace {

constexpr std::uint64_t kPoolBase = 0x1000'0000;
constexpr std::uint64_t kHeapBase = 0x8000'0000;
constexpr std::uint64_t kHeapStride = MiB(4);
constexpr std::uint16_t kRegion = 1;

// The Section 7 testbed (ClusterSpec's default shape): the compute node (16
// logical cores, as Xeon Silver 4110 with HT), the memory pool and the spot
// node.
struct Harness {
  Harness(const HashWorkloadConfig& config, ClusterSpec spec)
      : cfg(config), cluster(std::move(spec), config.telemetry) {
    ClusterHost& compute = cluster.client(0);
    ClusterHost& memory = cluster.memory(0);
    const Bytes pool_bytes = cfg.records * cfg.record_size + KiB(4);
    pool_mr = memory.dev->RegisterMemory(kPoolBase, pool_bytes);
    // Registered memory is pinned at ibv_reg_mr time on real hardware, so
    // fault the record pool and the per-thread delivery windows in up front;
    // page materialization must never land on the measured datapath.
    memory.mem.PreFault(kPoolBase, pool_bytes);
    for (int t = 0; t < cfg.threads; ++t) {
      compute.mem.PreFault(kHeapBase + t * kHeapStride, kHeapStride);
    }
    for (int t = 0; t < cfg.threads; ++t) {
      threads.push_back(std::make_unique<sim::SimThread>(
          *compute.machine, "app-" + std::to_string(t)));
      ops.push_back(0);
    }

    switch (cfg.paradigm) {
      case Paradigm::kLocalMemory:
        break;
      case Paradigm::kAifm:
        aifm = std::make_unique<baselines::AifmModel>(
            cluster.sim, baselines::AifmModel::Config{});
        break;
      case Paradigm::kTwoSidedSync: {
        server = std::make_unique<baselines::TwoSidedServer>(
            *memory.dev, *memory.machine, cfg.costs);
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          server->Serve(pair.b, pair.b_recv_cq, t);
          rpc_clients.push_back(std::make_unique<baselines::TwoSidedClient>(
              *compute.dev, pair.a, pair.a_recv_cq, cfg.costs, t));
        }
        break;
      }
      case Paradigm::kOneSidedSync:
      case Paradigm::kOneSidedAsync: {
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          baselines::OneSidedEndpoint ep{pair.a, pair.a_send_cq,
                                         pool_mr->rkey};
          endpoints.push_back(ep);
          pipelines.push_back(std::make_unique<baselines::AsyncPipeline>(
              ep, cfg.costs, cfg.window));
        }
        break;
      }
      case Paradigm::kCowbirdNoBatch:
      case Paradigm::kCowbird:
      case Paradigm::kCowbirdP4: {
        core::CowbirdClient::Config cc;
        cc.layout.base = 0x10000;
        cc.layout.threads = cfg.threads;
        cc.layout.meta_slots = 4096;
        cc.layout.data_capacity = MiB(1);
        cc.layout.resp_capacity = MiB(1);
        cc.costs = cfg.costs;
        client = &cluster.AddClient(0, cc);
        client->RegisterRegion(core::RegionInfo{
            kRegion, memory.id(), kPoolBase, pool_mr->rkey, pool_bytes});
        if (cfg.paradigm == Paradigm::kCowbirdP4) {
          p4::CowbirdP4Engine& engine =
              cluster.AddP4Engine(p4::CowbirdP4Engine::Config{});
          cluster.AttachP4(*client, 0x800);
          engine.Start();
          break;
        }
        spot::SpotAgent::Config ac = cfg.agent;
        ac.costs = cfg.costs;
        if (cfg.paradigm == Paradigm::kCowbirdNoBatch) ac.batch_size = 1;
        agent = &cluster.AddSpotAgent(ac);
        cluster.AttachSpot(*agent, *client);
        agent->Start();
        break;
      }
    }

    if (cfg.zipfian) {
      zipf = std::make_unique<ZipfianGenerator>(cfg.records, cfg.zipf_theta);
    }
    if (cfg.loss_rate > 0) {
      net::Link* lossy[] = {
          &cluster.sw().EgressLink(compute.nic.switch_port()),
          &cluster.sw().EgressLink(memory.nic.switch_port()),
          &cluster.sw().EgressLink(cluster.spot().nic.switch_port()),
      };
      // One stream shared by the three links, drawn in delivery order.
      loss_rng = std::make_unique<Rng>(cfg.seed * 104729 + 1);
      auto filter = [this](const net::Packet& p) {
        return rdma::LooksLikeRdma(p) && loss_rng->Bernoulli(cfg.loss_rate);
      };
      for (net::Link* link : lossy) link->set_drop_filter(filter);
    }
  }

  std::uint64_t LocalKeyCount() const {
    return static_cast<std::uint64_t>(cfg.local_fraction *
                                      static_cast<double>(cfg.records));
  }
  std::uint64_t HeapFor(int t) const { return kHeapBase + t * kHeapStride; }

  std::uint64_t NextKey(Rng& rng) const {
    if (cfg.zipfian) return zipf->NextScrambled(rng);
    return rng.Below(cfg.records);
  }

  HashWorkloadConfig cfg;
  Cluster cluster;
  const rdma::MemoryRegion* pool_mr = nullptr;
  core::CowbirdClient* client = nullptr;
  spot::SpotAgent* agent = nullptr;
  std::unique_ptr<baselines::TwoSidedServer> server;
  std::unique_ptr<baselines::AifmModel> aifm;
  std::unique_ptr<ZipfianGenerator> zipf;
  std::unique_ptr<Rng> loss_rng;
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::unique_ptr<baselines::TwoSidedClient>> rpc_clients;
  std::vector<std::unique_ptr<baselines::AsyncPipeline>> pipelines;
  std::vector<baselines::OneSidedEndpoint> endpoints;
  std::vector<std::uint64_t> ops;
};

// Per-operation application work common to all paradigms.
sim::Task<void> AppProbeWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(h.cfg.app_compute, sim::CpuCategory::kCompute);
}
sim::Task<void> AppConsumeWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(h.cfg.costs.CopyCost(h.cfg.record_size),
                       sim::CpuCategory::kCompute);
}
sim::Task<void> LocalAccessWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(
      h.cfg.costs.local_access + h.cfg.costs.CopyCost(h.cfg.record_size),
      sim::CpuCategory::kCompute);
}

sim::Task<void> DriveSync(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = h.LocalKeyCount();
  const std::uint64_t dest = h.HeapFor(t);
  for (;;) {
    const std::uint64_t key = h.NextKey(rng);
    co_await AppProbeWork(h, thread);
    if (key < local_keys) {
      co_await LocalAccessWork(h, thread);
    } else {
      const std::uint64_t remote = kPoolBase + key * h.cfg.record_size;
      switch (h.cfg.paradigm) {
        case Paradigm::kOneSidedSync:
          co_await baselines::SyncRead(
              thread, h.cfg.costs, h.endpoints[t], remote, dest,
              static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        case Paradigm::kTwoSidedSync:
          co_await h.rpc_clients[t]->Read(
              thread, remote, dest,
              static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        case Paradigm::kAifm:
          co_await h.aifm->RemoteGet(
              thread, static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        default:
          COWBIRD_CHECK(false);
      }
      co_await AppConsumeWork(h, thread);
    }
    ++h.ops[t];
  }
}

sim::Task<void> DriveLocal(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  for (;;) {
    (void)h.NextKey(rng);
    co_await AppProbeWork(h, thread);
    co_await LocalAccessWork(h, thread);
    ++h.ops[t];
  }
}

sim::Task<void> DriveOneSidedAsync(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  baselines::AsyncPipeline& pipeline = *h.pipelines[t];
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = h.LocalKeyCount();
  for (;;) {
    if (pipeline.CanIssue()) {
      const std::uint64_t key = h.NextKey(rng);
      co_await AppProbeWork(h, thread);
      if (key < local_keys) {
        co_await LocalAccessWork(h, thread);
        ++h.ops[t];
        continue;
      }
      const std::uint64_t slot = rng.Below(
          static_cast<std::uint64_t>(h.cfg.window));
      co_await pipeline.IssueRead(
          thread, kPoolBase + key * h.cfg.record_size,
          h.HeapFor(t) + slot * h.cfg.record_size,
          static_cast<std::uint32_t>(h.cfg.record_size));
      continue;
    }
    const auto cqe = co_await pipeline.Poll(thread);
    if (cqe.has_value()) {
      co_await AppConsumeWork(h, thread);
      ++h.ops[t];
    }
  }
}

sim::Task<void> DriveCowbird(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  auto& ctx = h.client->thread(t);
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = h.LocalKeyCount();
  const core::PollId poll = ctx.PollCreate();
  // Responses array owned by the application, Table-2 style: reused across
  // poll_wait calls so the steady-state harvest loop never allocates.
  std::vector<core::ReqId> done;
  done.reserve(static_cast<std::size_t>(h.cfg.window));
  int outstanding = 0;
  for (;;) {
    if (outstanding < h.cfg.window) {
      const std::uint64_t key = h.NextKey(rng);
      co_await AppProbeWork(h, thread);
      if (key < local_keys) {
        co_await LocalAccessWork(h, thread);
        ++h.ops[t];
        continue;
      }
      const std::uint64_t slot =
          rng.Below(static_cast<std::uint64_t>(h.cfg.window));
      std::optional<core::ReqId> id;
      if (h.cfg.write_fraction > 0 &&
          rng.NextDouble() < h.cfg.write_fraction) {
        id = co_await ctx.AsyncWrite(
            thread, kRegion, h.HeapFor(t) + slot * h.cfg.record_size,
            key * h.cfg.record_size,
            static_cast<std::uint32_t>(h.cfg.record_size));
      } else {
        id = co_await ctx.AsyncRead(
            thread, kRegion, key * h.cfg.record_size,
            h.HeapFor(t) + slot * h.cfg.record_size,
            static_cast<std::uint32_t>(h.cfg.record_size));
      }
      if (id.has_value()) {
        ctx.PollAdd(poll, *id);
        ++outstanding;
        continue;
      }
      // Rings full: fall through to harvest completions.
    }
    co_await ctx.PollWait(thread, poll, done, h.cfg.window, 0);
    if (done.empty()) {
      co_await thread.Idle(300);
      continue;
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      co_await AppConsumeWork(h, thread);
      ++h.ops[t];
    }
    outstanding -= static_cast<int>(done.size());
  }
}

struct CpuSnapshot {
  Nanos compute = 0;
  Nanos comm = 0;
  Nanos agent_busy = 0;
  std::uint64_t ops = 0;
};

CpuSnapshot Snapshot(const Harness& h) {
  CpuSnapshot s;
  for (int t = 0; t < h.cfg.threads; ++t) {
    s.compute += h.threads[t]->TimeIn(sim::CpuCategory::kCompute);
    s.comm += h.threads[t]->TimeIn(sim::CpuCategory::kCommunication);
    s.ops += h.ops[t];
  }
  if (h.agent) s.agent_busy = h.agent->agent_thread().TotalBusy();
  return s;
}

// One driver coroutine per application thread, for the paradigm.
void SpawnDrivers(Harness& h) {
  for (int t = 0; t < h.cfg.threads; ++t) {
    switch (h.cfg.paradigm) {
      case Paradigm::kLocalMemory:
        h.cluster.sim.Spawn(DriveLocal(h, t));
        break;
      case Paradigm::kOneSidedSync:
      case Paradigm::kTwoSidedSync:
      case Paradigm::kAifm:
        h.cluster.sim.Spawn(DriveSync(h, t));
        break;
      case Paradigm::kOneSidedAsync:
        h.cluster.sim.Spawn(DriveOneSidedAsync(h, t));
        break;
      case Paradigm::kCowbird:
      case Paradigm::kCowbirdNoBatch:
      case Paradigm::kCowbirdP4:
        h.cluster.sim.Spawn(DriveCowbird(h, t));
        break;
    }
  }
}

}  // namespace

WorkloadResult RunHashWorkload(const HashWorkloadConfig& config) {
  Harness h(config, ClusterSpec{});
  sim::Simulation& sim = h.cluster.sim;
  SpawnDrivers(h);
  sim.RunFor(config.warmup);
  const CpuSnapshot start = Snapshot(h);
  if (config.on_measure_start) config.on_measure_start();
  const Nanos t0 = sim.Now();
  const std::uint64_t events0 = sim.EventsProcessed();
  sim.RunFor(config.measure);
  if (config.on_measure_end) config.on_measure_end();
  const CpuSnapshot end = Snapshot(h);
  const Nanos elapsed = sim.Now() - t0;

  WorkloadResult result;
  result.ops = end.ops - start.ops;
  result.sim_events = sim.EventsProcessed() - events0;
  result.elapsed = elapsed;
  result.mops = Mops(result.ops, elapsed);
  const Nanos comm = end.comm - start.comm;
  const Nanos compute = end.compute - start.compute;
  result.comm_ratio =
      comm + compute > 0
          ? static_cast<double>(comm) / static_cast<double>(comm + compute)
          : 0.0;
  result.offload_core_util =
      h.agent ? static_cast<double>(end.agent_busy - start.agent_busy) /
                    static_cast<double>(elapsed)
              : 0.0;
  result.telemetry = h.cluster.TakeSnapshot();
  return result;
}

// ---------------------------------------------------------------------------
// Latency probe (Figure 13)
// ---------------------------------------------------------------------------

LatencyResult RunLatencyProbe(const LatencyProbeConfig& config) {
  HashWorkloadConfig base;
  base.paradigm = config.paradigm;
  base.threads = 1;
  base.record_size = config.record_size;
  base.records = 1'000'000;
  base.local_fraction = 0.0;  // every op goes remote
  base.window = config.inflight;
  base.agent = config.agent;
  base.costs = config.costs;
  base.telemetry = config.telemetry;
  Harness h(base, ClusterSpec{});

  PercentileSampler sampler;
  sampler.Reserve(config.samples);
  bool finished = false;

  h.cluster.sim.Spawn([](Harness& hh, const LatencyProbeConfig& cfg,
                     PercentileSampler& out, bool& done) -> sim::Task<void> {
    sim::SimThread& thread = *hh.threads[0];
    Rng rng(4242);
    const auto len = static_cast<std::uint32_t>(cfg.record_size);
    if (cfg.paradigm == Paradigm::kOneSidedSync) {
      for (int i = 0; i < cfg.samples; ++i) {
        const Nanos begin = hh.cluster.sim.Now();
        const std::uint64_t key = rng.Below(hh.cfg.records);
        co_await baselines::SyncRead(thread, cfg.costs, hh.endpoints[0],
                                     kPoolBase + key * cfg.record_size,
                                     hh.HeapFor(0), len);
        out.Add(static_cast<double>(hh.cluster.sim.Now() - begin));
      }
    } else if (cfg.paradigm == Paradigm::kOneSidedAsync) {
      // Keep `inflight` reads outstanding; latency includes queueing behind
      // the batch, as in the paper.
      baselines::AsyncPipeline& pipeline = *hh.pipelines[0];
      std::deque<Nanos> issue_times;
      int issued = 0, completed = 0;
      while (completed < cfg.samples) {
        if (pipeline.CanIssue() && issued < cfg.samples + cfg.inflight) {
          const std::uint64_t key = rng.Below(hh.cfg.records);
          issue_times.push_back(hh.cluster.sim.Now());
          co_await pipeline.IssueRead(thread,
                                      kPoolBase + key * cfg.record_size,
                                      hh.HeapFor(0), len);
          ++issued;
          continue;
        }
        auto cqe = co_await pipeline.Poll(thread);
        if (cqe.has_value()) {
          out.Add(static_cast<double>(hh.cluster.sim.Now() -
                                      issue_times.front()));
          issue_times.pop_front();
          ++completed;
        }
      }
    } else {
      // Cowbird variants.
      auto& ctx = hh.client->thread(0);
      const core::PollId poll = ctx.PollCreate();
      std::deque<std::pair<std::uint64_t, Nanos>> issue_times;  // seq → t
      std::vector<core::ReqId> done_ids;
      done_ids.reserve(static_cast<std::size_t>(cfg.inflight));
      int issued = 0, completed = 0, outstanding = 0;
      while (completed < cfg.samples) {
        if (outstanding < cfg.inflight &&
            issued < cfg.samples + cfg.inflight) {
          const std::uint64_t key = rng.Below(hh.cfg.records);
          auto id = co_await ctx.AsyncRead(thread, kRegion,
                                           key * cfg.record_size,
                                           hh.HeapFor(0), len);
          if (id.has_value()) {
            ctx.PollAdd(poll, *id);
            issue_times.emplace_back(id->seq(), hh.cluster.sim.Now());
            ++issued;
            ++outstanding;
            continue;
          }
        }
        co_await ctx.PollWait(thread, poll, done_ids, cfg.inflight, 0);
        if (done_ids.empty()) {
          co_await thread.Idle(200);
          continue;
        }
        for (const auto& id : done_ids) {
          COWBIRD_CHECK(!issue_times.empty() &&
                        issue_times.front().first == id.seq());
          out.Add(static_cast<double>(hh.cluster.sim.Now() -
                                      issue_times.front().second));
          issue_times.pop_front();
          ++completed;
          --outstanding;
        }
      }
    }
    done = true;
    hh.cluster.sim.Halt();
  }(h, config, sampler, finished));

  h.cluster.sim.Run();
  COWBIRD_CHECK(finished);
  LatencyResult result;
  result.samples = sampler.count();
  result.median_us = sampler.Median() / 1000.0;
  result.p99_us = sampler.P99() / 1000.0;
  result.telemetry = h.cluster.TakeSnapshot();
  return result;
}

// ---------------------------------------------------------------------------
// Bandwidth contention (Figure 14)
// ---------------------------------------------------------------------------

ContentionResult RunContentionExperiment(const HashWorkloadConfig& config,
                                         int tcp_flows,
                                         BitRate compute_uplink) {
  // A 25 Gbps bystander server sinks the flows.
  ClusterSpec spec;
  spec.client_uplink = compute_uplink;
  spec.hosts.push_back(ClusterSpec::Host::kBystander);
  // Figure 14 compares Cowbird against no Cowbird.
  COWBIRD_CHECK(config.paradigm == Paradigm::kLocalMemory ||
                config.paradigm == Paradigm::kCowbird ||
                config.paradigm == Paradigm::kCowbirdNoBatch ||
                config.paradigm == Paradigm::kCowbirdP4);
  Harness h(config, std::move(spec));
  // Worst case per the paper: RDMA above user traffic on the shared uplink.
  h.cluster.client(0).nic.uplink().set_priority_scheduling(true);
  SpawnDrivers(h);

  std::vector<std::unique_ptr<net::GreedyFlow>> flows;
  for (int i = 0; i < tcp_flows; ++i) {
    flows.push_back(std::make_unique<net::GreedyFlow>(
        h.cluster.client(0).nic, h.cluster.bystander().nic,
        static_cast<std::uint16_t>(i), net::GreedyFlow::Config{}));
  }

  h.cluster.sim.RunFor(config.warmup);
  const CpuSnapshot start = Snapshot(h);
  const Nanos t0 = h.cluster.sim.Now();
  for (auto& flow : flows) flow->Start();
  h.cluster.sim.RunFor(config.measure);
  const CpuSnapshot end = Snapshot(h);
  const Nanos elapsed = h.cluster.sim.Now() - t0;

  ContentionResult result;
  for (auto& flow : flows) result.tcp_gbps += flow->GoodputGbps();
  result.app_mops = Mops(end.ops - start.ops, elapsed);
  return result;
}

}  // namespace cowbird::workload
