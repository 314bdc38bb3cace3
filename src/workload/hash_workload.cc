#include "workload/hash_workload.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aifm.h"
#include "baselines/onesided.h"
#include "baselines/twosided.h"
#include "common/check.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "net/flow.h"
#include "p4/engine.h"
#include "workload/cluster.h"
#include "workload/cutover.h"
#include "workload/scale_workload.h"

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
// Physical slabs backing the migrating client's ClusterPool region live
// away from the per-server pools so neither registration overlaps.
constexpr std::uint64_t kSlabBase = 0x4000'0000;
// Cadence of the migration coordinator. The whole tick train is scheduled
// up front rather than each tick scheduling the next, so its events keep
// the queue sequence numbers the pinned outcomes were recorded with.
constexpr Nanos kMigrateTick = Micros(25);
// Back-off between completion polls while the window is full and nothing
// has finished.
constexpr Nanos kPollIdle = 300;

bool IsCowbird(Paradigm p) {
  return p == Paradigm::kCowbird || p == Paradigm::kCowbirdNoBatch ||
         p == Paradigm::kCowbirdP4;
}

// The fan-in shape of a run. The hash workload is one client on one memory
// server; the rack copies every value from its ScaleWorkloadConfig.
struct FanIn {
  int clients = 1;
  int memory_servers = 1;
  bool incast = false;
  bool migrate = false;
  Nanos migrate_start = 0;
  bool sample_latency = false;
};

// K clients and M memory servers around one switch, plus the spot host. The
// hash workload runs the Section 7 testbed (ClusterSpec's default shape):
// the compute node (16 logical cores, as Xeon Silver 4110 with HT), the
// memory pool and the spot node. Client k's region lives on memory server
// ServerFor(k), and every Cowbird client is offloaded through the same
// engine (fan-in).
struct Harness {
  Harness(const HashWorkloadConfig& config, const ClusterSpec& spec,
          FanIn fan_in = {})
      : cfg(config), fan(fan_in), cluster(spec, config.telemetry) {
    const bool cowbird = IsCowbird(cfg.paradigm);
    COWBIRD_CHECK(cowbird || fan.clients == 1);
    const Bytes pool_bytes = cfg.records * cfg.record_size + KiB(4);
    for (int m = 0; m < fan.memory_servers; ++m) {
      pool_mrs.push_back(
          cluster.memory(m).dev->RegisterMemory(kPoolBase, pool_bytes));
    }
    if (fan.migrate) {
      // Client 0's region comes from an elastic ClusterPool instead of the
      // per-server pool: one slab per server (source + rebalance
      // destination), region carved entirely on server 0.
      COWBIRD_CHECK(fan.memory_servers >= 2);
      slab_bytes = core::ExtentAllocator::AlignUp(
          pool_bytes, core::ClusterPool::kRangeAlign);
      for (int m = 0; m < 2; ++m) {
        pool.AddServer(*cluster.memory(m).dev, kSlabBase, slab_bytes);
      }
      if (cfg.telemetry != nullptr) {
        pool.BindTelemetry(cfg.telemetry->metrics, telemetry::Labels{});
      }
    }
    for (int k = 0; k < fan.clients; ++k) {
      for (int t = 0; t < cfg.threads; ++t) {
        threads.push_back(std::make_unique<sim::SimThread>(
            *cluster.client(k).machine,
            "app-" + std::to_string(k) + "-" + std::to_string(t)));
        ops.push_back(0);
      }
      if (cowbird) AddCowbirdClient(k, pool_bytes);
    }
    if (fan.sample_latency) latency_traces.resize(threads.size());

    ClusterHost& compute = cluster.client(0);
    ClusterHost& memory = cluster.memory(0);
    switch (cfg.paradigm) {
      case Paradigm::kLocalMemory:
        break;
      case Paradigm::kAifm:
        aifm = std::make_unique<baselines::AifmModel>(cluster.sim);
        break;
      case Paradigm::kTwoSidedSync: {
        server = std::make_unique<baselines::TwoSidedServer>(
            *memory.dev, *memory.machine, *pool_mrs[0]);
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          server->Serve(pair.b, pair.b_recv_cq, t);
          rpc_clients.push_back(std::make_unique<baselines::TwoSidedClient>(
              *compute.dev, pair.a, pair.a_recv_cq, t));
        }
        break;
      }
      case Paradigm::kOneSidedSync:
      case Paradigm::kOneSidedAsync: {
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(*compute.dev, *memory.dev);
          baselines::OneSidedEndpoint ep{pair.a, pair.a_send_cq,
                                         pool_mrs[0]->rkey};
          endpoints.push_back(ep);
          pipelines.push_back(
              std::make_unique<baselines::AsyncPipeline>(ep, cfg.window));
        }
        break;
      }
      case Paradigm::kCowbirdNoBatch:
      case Paradigm::kCowbird:
      case Paradigm::kCowbirdP4:
        AttachEngine();
        break;
    }

    if (fan.migrate) {
      // The copy stream rides a dedicated QP src→dst (connected here),
      // sharing the fabric — and therefore contending — with the
      // foreground traffic.
      cutover.emplace(cluster, pool, *clients[0], kRegion, kPoolBase, 0, 1,
                      RegionCutover::Config{}, /*halt=*/false);
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

  // Incast collapses the striping: every client hits memory server 0.
  int ServerFor(int k) const {
    return fan.incast ? 0 : k % fan.memory_servers;
  }

  void AddCowbirdClient(int k, Bytes pool_bytes) {
    core::CowbirdClient::Config cc;
    cc.layout.base = 0x10000;
    cc.layout.threads = cfg.threads;
    cc.layout.meta_slots = 4096;
    cc.layout.data_capacity = MiB(1);
    cc.layout.resp_capacity = MiB(1);
    core::CowbirdClient& client = cluster.AddClient(k, cc);
    clients.push_back(&client);
    if (fan.migrate && k == 0) {
      const auto region = pool.AllocateRegion(kRegion, kPoolBase, slab_bytes,
                                              cluster.memory(0).id());
      COWBIRD_CHECK(region.has_value());
      client.RegisterRegion(*region);
      client.SetRegionRanges(kRegion, pool.RangesFor(kRegion));
      return;
    }
    const int m = ServerFor(k);
    client.RegisterRegion(core::RegionInfo{
        kRegion, cluster.memory(m).id(), kPoolBase,
        pool_mrs[static_cast<std::size_t>(m)]->rkey, pool_bytes});
  }

  // Builds the engine, attaches every client in order, then starts it.
  void AttachEngine() {
    // The migrating instance needs an endpoint on both servers:
    // post-cutover translations resolve to the destination.
    const auto attach_all = [this](Cluster::Engine serving) {
      engine = serving;
      for (int k = 0; k < fan.clients; ++k) {
        cluster.Attach(serving, *clients[static_cast<std::size_t>(k)],
                       fan.migrate && k == 0 ? std::vector<int>{0, 1}
                                             : std::vector<int>{ServerFor(k)});
      }
    };
    if (cfg.paradigm == Paradigm::kCowbirdP4) {
      p4::CowbirdP4Engine& p4 = cluster.AddP4Engine({});
      attach_all(p4);
      p4.Start();
      return;
    }
    spot::SpotAgent::Config ac = cfg.agent;
    if (cfg.paradigm == Paradigm::kCowbirdNoBatch) ac.batch_size = 1;
    agent = &cluster.AddSpotAgent(ac);
    attach_all(*agent);
    agent->Start();
  }

  std::uint64_t LocalKeyCount() const {
    return static_cast<std::uint64_t>(cfg.local_fraction *
                                      static_cast<double>(cfg.records));
  }
  std::uint64_t HeapFor(int t) const { return kHeapBase + t * kHeapStride; }
  // Index of client k's thread t in threads, ops and latency_traces.
  std::size_t Index(int k, int t) const {
    return static_cast<std::size_t>(k * cfg.threads + t);
  }

  std::uint64_t TotalOps() const {
    std::uint64_t total = 0;
    for (const std::uint64_t count : ops) total += count;
    return total;
  }

  // One pre-scheduled coordinator tick for client 0's region. The phase
  // split reads the stage transitions: the copy starts on the first tick,
  // and the cutover (translation flip, range republish, re-attach) happens
  // inside a single later one.
  void MigrationTick(Nanos now) {
    if (!cutover->Tick(*engine)) return;
    if (cutover->done()) {
      migrate_cutover_at = now;
      ops_at_cutover = TotalOps();
    } else if (!cutover->parked()) {
      migrate_started_at = now;
      ops_at_migrate_start = TotalOps();
    }
  }

  HashWorkloadConfig cfg;
  FanIn fan;
  Cluster cluster;
  std::vector<const rdma::MemoryRegion*> pool_mrs;  // per memory server
  std::vector<core::CowbirdClient*> clients;
  std::optional<Cluster::Engine> engine;  // serves every client
  spot::SpotAgent* agent = nullptr;
  std::unique_ptr<baselines::TwoSidedServer> server;
  std::unique_ptr<baselines::AifmModel> aifm;
  std::unique_ptr<Rng> loss_rng;
  // Per (client, thread), in (k, t) order.
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::uint64_t> ops;
  // (completion time, latency) pairs, only when fan.sample_latency.
  std::vector<std::vector<std::pair<Nanos, Nanos>>> latency_traces;
  std::vector<std::unique_ptr<baselines::TwoSidedClient>> rpc_clients;
  std::vector<std::unique_ptr<baselines::AsyncPipeline>> pipelines;
  std::vector<baselines::OneSidedEndpoint> endpoints;

  // Live-rebalance state (untouched unless fan.migrate).
  core::ClusterPool pool;
  Bytes slab_bytes = 0;
  std::optional<RegionCutover> cutover;
  Nanos migrate_started_at = 0;
  Nanos migrate_cutover_at = 0;
  std::uint64_t ops_at_migrate_start = 0;
  std::uint64_t ops_at_cutover = 0;
};

// Per-operation application work common to all paradigms.
sim::SimThread::WorkAwaiter AppProbe(const Harness& h,
                                     sim::SimThread& thread) {
  return thread.Work(h.cfg.app_compute, sim::CpuCategory::kCompute);
}
sim::SimThread::WorkAwaiter AppConsume(const Harness& h,
                                       sim::SimThread& thread) {
  return thread.Work(rdma::cost::CopyCost(h.cfg.record_size),
                     sim::CpuCategory::kCompute);
}
sim::SimThread::WorkAwaiter LocalAccess(const Harness& h,
                                        sim::SimThread& thread) {
  return thread.Work(
      rdma::cost::kLocalAccess + rdma::cost::CopyCost(h.cfg.record_size),
      sim::CpuCategory::kCompute);
}

sim::Task<void> DriveSync(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = h.LocalKeyCount();
  const std::uint64_t dest = h.HeapFor(t);
  for (;;) {
    const std::uint64_t key = rng.Below(h.cfg.records);
    co_await AppProbe(h, thread);
    if (key < local_keys) {
      co_await LocalAccess(h, thread);
    } else {
      const std::uint64_t remote = kPoolBase + key * h.cfg.record_size;
      switch (h.cfg.paradigm) {
        case Paradigm::kOneSidedSync:
          co_await baselines::SyncRead(
              thread, h.endpoints[t], remote, dest,
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
      co_await AppConsume(h, thread);
    }
    ++h.ops[t];
  }
}

sim::Task<void> DriveLocal(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  for (;;) {
    (void)rng.Below(h.cfg.records);
    co_await AppProbe(h, thread);
    co_await LocalAccess(h, thread);
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
      const std::uint64_t key = rng.Below(h.cfg.records);
      co_await AppProbe(h, thread);
      if (key < local_keys) {
        co_await LocalAccess(h, thread);
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
      co_await AppConsume(h, thread);
      ++h.ops[t];
    }
  }
}

// The Cowbird closed loop of client k's thread t: issue up to `window`
// requests, then harvest completions.
sim::Task<void> DriveCowbird(Harness& h, int k, int t) {
  const std::size_t i = h.Index(k, t);
  sim::SimThread& thread = *h.threads[i];
  auto& ctx = h.clients[static_cast<std::size_t>(k)]->thread(t);
  Rng rng(h.cfg.seed * 7919 + static_cast<std::uint64_t>(k) * 131 +
          static_cast<std::uint64_t>(t));
  const std::uint64_t local_keys = h.LocalKeyCount();
  const core::PollId poll = ctx.PollCreate();
  // Responses array owned by the application, Table-2 style: reused across
  // poll_wait calls so the steady-state harvest loop never allocates.
  std::vector<core::ReqId> done;
  done.reserve(static_cast<std::size_t>(h.cfg.window));
  // Opt-in latency bookkeeping. It draws no RNG values and charges no
  // simulated time, so op streams match a non-sampling run exactly.
  const bool sample = h.fan.sample_latency;
  // At most `window` ops are outstanding, so a table of twice that never
  // grows and sampling allocates nothing per op.
  const auto window = static_cast<std::size_t>(h.cfg.window);
  DenseMap<Nanos> issued_at(sample ? 2 * window : 0);
  int outstanding = 0;
  for (;;) {
    if (outstanding < h.cfg.window) {
      const std::uint64_t key = rng.Below(h.cfg.records);
      co_await AppProbe(h, thread);
      if (key < local_keys) {
        co_await LocalAccess(h, thread);
        ++h.ops[i];
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
        if (sample) issued_at[id->value()] = thread.simulation().Now();
        ++outstanding;
        continue;
      }
      // Rings full: one check, then back to the issue attempt.
      co_await ctx.PollWait(thread, poll, done, h.cfg.window, 0);
      if (done.empty()) {
        co_await thread.Idle(kPollIdle);
        continue;
      }
    } else {
      // Window full: check every kPollIdle until something completes.
      co_await ctx.PollAny(thread, poll, done, h.cfg.window, kPollIdle);
    }
    if (sample) {
      const Nanos now = thread.simulation().Now();
      for (const core::ReqId id : done) {
        const Nanos* issued = issued_at.Find(id.value());
        if (issued == nullptr) continue;
        h.latency_traces[i].emplace_back(now, now - *issued);
        issued_at.Erase(id.value());
      }
    }
    for (std::size_t n = 0; n < done.size(); ++n) {
      co_await AppConsume(h, thread);
      ++h.ops[i];
    }
    outstanding -= static_cast<int>(done.size());
  }
}

struct CpuSnapshot {
  Nanos compute = 0;
  Nanos comm = 0;
  Nanos agent_busy = 0;
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> client_ops;
};

CpuSnapshot Snapshot(const Harness& h) {
  CpuSnapshot s;
  s.client_ops.assign(static_cast<std::size_t>(h.fan.clients), 0);
  for (std::size_t i = 0; i < h.threads.size(); ++i) {
    s.compute += h.threads[i]->TimeIn(sim::CpuCategory::kCompute);
    s.comm += h.threads[i]->TimeIn(sim::CpuCategory::kCommunication);
    s.client_ops[i / static_cast<std::size_t>(h.cfg.threads)] += h.ops[i];
    s.ops += h.ops[i];
  }
  if (h.agent) s.agent_busy = h.agent->agent_thread().TotalBusy();
  return s;
}

// One driver coroutine per application thread, in (client, thread) order,
// then the migration coordinator's tick train: one tick every kMigrateTick
// from migrate_start to the end of the run.
void SpawnDrivers(Harness& h) {
  for (int k = 0; k < h.fan.clients; ++k) {
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
          h.cluster.sim.Spawn(DriveCowbird(h, k, t));
          break;
      }
    }
  }
  if (!h.fan.migrate) return;
  for (Nanos when = h.fan.migrate_start; when < h.cfg.warmup + h.cfg.measure;
       when += kMigrateTick) {
    h.cluster.sim.ScheduleAt(when, [&h, when] { h.MigrationTick(when); });
  }
}

// The warm-up and measure window both closed-loop entry points read.
struct Window {
  CpuSnapshot start;
  CpuSnapshot end;
  Nanos t0 = 0;
  Nanos elapsed = 0;
  std::uint64_t sim_events = 0;
};

Window Measure(Harness& h) {
  sim::Simulation& sim = h.cluster.sim;
  Window w;
  sim.RunFor(h.cfg.warmup);
  w.start = Snapshot(h);
  if (h.cfg.on_measure_start) h.cfg.on_measure_start();
  w.t0 = sim.Now();
  const std::uint64_t events0 = sim.EventsProcessed();
  sim.RunFor(h.cfg.measure);
  if (h.cfg.on_measure_end) h.cfg.on_measure_end();
  w.end = Snapshot(h);
  w.elapsed = sim.Now() - w.t0;
  w.sim_events = sim.EventsProcessed() - events0;
  return w;
}

// The rack: K clients and M memory servers fanning into one top-of-rack
// switch, plus the spot host.
ClusterSpec RackSpec(const ScaleWorkloadConfig& config) {
  ClusterSpec spec;
  spec.clients = config.clients;
  spec.client_cores = std::max(2, config.threads_per_client);
  spec.hosts.assign(static_cast<std::size_t>(config.memory_servers),
                    ClusterSpec::Host::kMemory);
  spec.hosts.push_back(ClusterSpec::Host::kSpot);
  spec.switches.egress_queue_capacity = config.egress_queue_capacity;
  spec.switches.ecn_threshold = config.ecn_threshold;
  spec.switches.pfc_enabled = config.pfc;
  spec.nic.dcqcn = config.dcqcn;
  spec.nic.retransmit_timeout = config.retransmit_timeout;
  return spec;
}

// Latency percentiles of the samples that completed in (lo, hi].
struct Percentiles {
  std::uint64_t count = 0;
  Nanos p50 = 0;
  Nanos p99 = 0;
};

Percentiles LatencyIn(const Harness& h, Nanos lo, Nanos hi) {
  // Traces merge in fixed (client, thread) order, into storage reserved
  // once for every sample.
  std::size_t samples = 0;
  for (const auto& trace : h.latency_traces) samples += trace.size();
  PercentileSampler sampler;
  sampler.Reserve(samples);
  for (const auto& trace : h.latency_traces) {
    for (const auto& [completed_at, latency] : trace) {
      if (completed_at > lo && completed_at <= hi) {
        sampler.Add(static_cast<double>(latency));
      }
    }
  }
  Percentiles p;
  p.count = sampler.count();
  if (p.count > 0) {
    p.p50 = static_cast<Nanos>(sampler.Median());
    p.p99 = static_cast<Nanos>(sampler.P99());
  }
  return p;
}

}  // namespace

WorkloadResult RunHashWorkload(const HashWorkloadConfig& config) {
  Harness h(config, ClusterSpec{});
  SpawnDrivers(h);
  const Window w = Measure(h);

  WorkloadResult result;
  result.ops = w.end.ops - w.start.ops;
  result.sim_events = w.sim_events;
  result.elapsed = w.elapsed;
  result.mops = Mops(result.ops, w.elapsed);
  const Nanos comm = w.end.comm - w.start.comm;
  const Nanos compute = w.end.compute - w.start.compute;
  result.comm_ratio =
      comm + compute > 0
          ? static_cast<double>(comm) / static_cast<double>(comm + compute)
          : 0.0;
  result.offload_core_util =
      h.agent ? static_cast<double>(w.end.agent_busy - w.start.agent_busy) /
                    static_cast<double>(w.elapsed)
              : 0.0;
  result.telemetry = h.cluster.TakeSnapshot();
  return result;
}

ScaleWorkloadResult RunScaleWorkload(const ScaleWorkloadConfig& config) {
  COWBIRD_CHECK(config.clients >= 1);
  COWBIRD_CHECK(config.memory_servers >= 1);
  COWBIRD_CHECK(config.paradigm == Paradigm::kCowbird ||
                config.paradigm == Paradigm::kCowbirdP4);
  HashWorkloadConfig loop;  // every op remote, reads only
  loop.paradigm = config.paradigm;
  loop.threads = config.threads_per_client;
  loop.record_size = config.record_size;
  loop.records = config.records;
  loop.local_fraction = 0;
  loop.window = config.window;
  loop.warmup = config.warmup;
  loop.measure = config.measure;
  loop.seed = config.seed;
  loop.agent = config.agent;
  loop.telemetry = config.telemetry;
  Harness h(loop, RackSpec(config),
            FanIn{.clients = config.clients,
                  .memory_servers = config.memory_servers,
                  .incast = config.incast,
                  .migrate = config.migrate,
                  .migrate_start = config.migrate_start,
                  .sample_latency = config.sample_latency});
  SpawnDrivers(h);
  const Window w = Measure(h);
  const Nanos t0 = w.t0;
  const Nanos t_end = t0 + w.elapsed;

  ScaleWorkloadResult result;
  result.client_ops = w.end.client_ops;
  for (std::size_t k = 0; k < result.client_ops.size(); ++k) {
    result.client_ops[k] -= w.start.client_ops[k];
    result.ops += result.client_ops[k];
  }
  result.sim_events = w.sim_events;
  result.elapsed = w.elapsed;
  result.mops = Mops(result.ops, w.elapsed);

  if (config.sample_latency) {
    // Only ops that completed inside the measure window.
    const Percentiles window = LatencyIn(h, t0, t_end);
    result.latency_samples = window.count;
    result.p50_latency = window.p50;
    result.p99_latency = window.p99;
  }

  if (config.migrate) {
    result.migrations = h.cutover->done() ? 1 : 0;
    result.migrate_bytes_copied = h.cutover->bytes_copied();
    result.migrate_dirty_marks = h.cutover->dirty_marks();
    result.migrate_started_at = h.migrate_started_at;
    result.migrate_cutover_at = h.migrate_cutover_at;
    // Phase split of the measure window, defined only when the whole
    // migration happened inside it.
    if (result.migrations == 1 && h.migrate_started_at >= t0) {
      const auto window_mops = [](std::uint64_t lo_ops, std::uint64_t hi_ops,
                                  Nanos lo, Nanos hi) {
        return hi > lo ? Mops(hi_ops - lo_ops, hi - lo) : 0.0;
      };
      result.mops_before = window_mops(w.start.ops, h.ops_at_migrate_start,
                                       t0, h.migrate_started_at);
      result.mops_during = window_mops(h.ops_at_migrate_start,
                                       h.ops_at_cutover,
                                       h.migrate_started_at,
                                       h.migrate_cutover_at);
      result.mops_after = window_mops(h.ops_at_cutover, w.end.ops,
                                      h.migrate_cutover_at, t_end);
      if (config.sample_latency) {
        result.p99_before = LatencyIn(h, t0, h.migrate_started_at).p99;
        result.p99_during =
            LatencyIn(h, h.migrate_started_at, h.migrate_cutover_at).p99;
        result.p99_after = LatencyIn(h, h.migrate_cutover_at, t_end).p99;
      }
    }
  }

  const FabricCounters fabric = h.cluster.Counters();
  result.switch_drops = fabric.switch_drops;
  result.ecn_marked = fabric.ecn_marked;
  result.pfc_pauses = fabric.pfc_pauses;
  result.retransmissions = fabric.retransmissions;
  result.retransmissions_by_node = fabric.retransmissions_by_node;
  if (config.paradigm == Paradigm::kCowbirdP4) {
    result.gbn_recoveries = h.cluster.p4().recoveries();
  }
  result.cnps = fabric.cnps;
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
        co_await baselines::SyncRead(thread, hh.endpoints[0],
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
      auto& ctx = hh.clients[0]->thread(0);
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
          co_await ctx.PollWait(thread, poll, done_ids, cfg.inflight, 0);
          if (done_ids.empty()) {
            co_await thread.Idle(200);
            continue;
          }
        } else {
          co_await ctx.PollAny(thread, poll, done_ids, cfg.inflight, 200);
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
  Harness h(config, spec);
  // Worst case per the paper: RDMA above user traffic on the shared uplink.
  h.cluster.client(0).nic.uplink().set_priority_scheduling(true);
  SpawnDrivers(h);

  std::vector<std::unique_ptr<net::GreedyFlow>> flows;
  for (int i = 0; i < tcp_flows; ++i) {
    flows.push_back(std::make_unique<net::GreedyFlow>(
        h.cluster.client(0).nic, h.cluster.bystander().nic,
        static_cast<std::uint16_t>(i)));
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
