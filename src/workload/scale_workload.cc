#include "workload/scale_workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/migration.h"
#include "p4/engine.h"
#include "workload/cluster.h"
#include "workload/cutover.h"

namespace cowbird::workload {
namespace {

constexpr std::uint64_t kPoolBase = 0x1000'0000;
constexpr std::uint64_t kHeapBase = 0x8000'0000;
constexpr std::uint64_t kHeapStride = MiB(4);
constexpr std::uint16_t kRegion = 1;
// Physical slabs backing the migrating client's ClusterPool region live
// away from the striped per-server pools so neither registration overlaps.
constexpr std::uint64_t kSlabBase = 0x4000'0000;
// Cadence of the migration coordinator. The whole tick train is scheduled
// up front rather than each tick scheduling the next, so its events keep
// the queue sequence numbers the pinned outcomes were recorded with.
constexpr Nanos kMigrateTick = Micros(25);
// Per-op application work (hash + bucket probe), and the back-off between
// completion polls while the window is full and nothing has finished.
constexpr Nanos kAppCompute = 60;
constexpr Nanos kPollIdle = 300;

// Incast collapses the striping: every client hits memory server 0.
int ServerFor(const ScaleWorkloadConfig& cfg, int k) {
  return cfg.incast ? 0 : k % cfg.memory_servers;
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

struct ScaleHarness {
  explicit ScaleHarness(const ScaleWorkloadConfig& config)
      : cfg(config), cluster(RackSpec(config), config.telemetry) {
    latency_traces.resize(
        static_cast<std::size_t>(cfg.clients * cfg.threads_per_client));
    const Bytes pool_bytes = cfg.records * cfg.record_size + KiB(4);
    for (int m = 0; m < cfg.memory_servers; ++m) {
      pool_mrs.push_back(
          cluster.memory(m).dev->RegisterMemory(kPoolBase, pool_bytes));
      cluster.memory(m).mem.PreFault(kPoolBase, pool_bytes);
    }
    if (cfg.migrate) {
      // Client 0's region comes from an elastic ClusterPool instead of the
      // striped per-server pool: one slab per server (source + rebalance
      // destination), region carved entirely on server 0.
      COWBIRD_CHECK(cfg.memory_servers >= 2);
      slab_bytes = (pool_bytes + core::ClusterPool::kRangeAlign - 1) /
                   core::ClusterPool::kRangeAlign *
                   core::ClusterPool::kRangeAlign;
      for (int m = 0; m < 2; ++m) {
        pool.AddServer(*cluster.memory(m).dev, kSlabBase, slab_bytes);
        cluster.memory(m).mem.PreFault(kSlabBase, slab_bytes);
      }
      if (cfg.telemetry != nullptr) {
        pool.BindTelemetry(cfg.telemetry->metrics, telemetry::Labels{});
      }
    }

    // Per-client Cowbird instances, every one offloaded through the same
    // engine (fan-in). Client k's region lives on memory server k % M.
    for (int k = 0; k < cfg.clients; ++k) {
      ClusterHost& host = cluster.client(k);
      for (int t = 0; t < cfg.threads_per_client; ++t) {
        host.mem.PreFault(kHeapBase + t * kHeapStride, kHeapStride);
        threads.push_back(std::make_unique<sim::SimThread>(
            *host.machine,
            "app-" + std::to_string(k) + "-" + std::to_string(t)));
      }
      core::CowbirdClient::Config cc;
      cc.layout.base = 0x10000;
      cc.layout.threads = cfg.threads_per_client;
      cc.layout.meta_slots = 4096;
      cc.layout.data_capacity = MiB(1);
      cc.layout.resp_capacity = MiB(1);
      clients.push_back(&cluster.AddClient(k, cc));
      const int server = ServerFor(cfg, k);
      if (cfg.migrate && k == 0) {
        const auto region = pool.AllocateRegion(
            kRegion, kPoolBase, slab_bytes, cluster.memory(0).id());
        COWBIRD_CHECK(region.has_value());
        clients.back()->RegisterRegion(*region);
        clients.back()->SetRegionRanges(kRegion, pool.RangesFor(kRegion));
      } else {
        clients.back()->RegisterRegion(core::RegionInfo{
            kRegion, cluster.memory(server).id(), kPoolBase,
            pool_mrs[static_cast<std::size_t>(server)]->rkey, pool_bytes});
      }
      ops.emplace_back(static_cast<std::size_t>(cfg.threads_per_client), 0);
    }

    // The migrating instance needs an endpoint on both servers:
    // post-cutover translations resolve to the destination.
    auto memories_for = [this](int k) {
      return cfg.migrate && k == 0 ? std::vector<int>{0, 1}
                                   : std::vector<int>{ServerFor(cfg, k)};
    };
    if (cfg.paradigm == Paradigm::kCowbirdP4) {
      p4::CowbirdP4Engine::Config ec;
      // When the NICs run DCQCN, the switch-generated packets join the ECN
      // loop too (and the engine reflects CNPs to the memory hosts).
      ec.ecn_capable = cfg.dcqcn.enabled;
      p4::CowbirdP4Engine& p4 = cluster.AddP4Engine(ec);
      engine = p4;
      for (int k = 0; k < cfg.clients; ++k) {
        cluster.Attach(p4, *clients[static_cast<std::size_t>(k)],
                       memories_for(k));
      }
      p4.Start();
    } else {
      COWBIRD_CHECK(cfg.paradigm == Paradigm::kCowbird);
      spot::SpotAgent& agent = cluster.AddSpotAgent(cfg.agent);
      engine = agent;
      for (int k = 0; k < cfg.clients; ++k) {
        cluster.Attach(agent, *clients[static_cast<std::size_t>(k)],
                       memories_for(k));
      }
      agent.Start();
    }

    if (cfg.migrate) {
      // The copy stream rides a dedicated QP src→dst (connected here),
      // sharing the fabric — and therefore contending — with the
      // foreground read traffic.
      core::RegionMigrator::Config mc;
      mc.telemetry = cfg.telemetry;
      cutover.emplace(cluster, pool, *clients[0], kRegion, kPoolBase, 0, 1,
                      mc, /*halt=*/false);
    }
  }

  std::uint64_t TotalOps() const {
    std::uint64_t total = 0;
    for (const auto& per_thread : ops) {
      for (const std::uint64_t count : per_thread) total += count;
    }
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

  sim::SimThread& ThreadFor(int k, int t) {
    return *threads[static_cast<std::size_t>(k * cfg.threads_per_client + t)];
  }

  std::vector<std::pair<Nanos, Nanos>>& TraceFor(int k, int t) {
    return latency_traces[static_cast<std::size_t>(
        k * cfg.threads_per_client + t)];
  }

  ScaleWorkloadConfig cfg;
  Cluster cluster;
  std::vector<const rdma::MemoryRegion*> pool_mrs;
  std::vector<core::CowbirdClient*> clients;
  std::optional<Cluster::Engine> engine;  // serves every client
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::vector<std::uint64_t>> ops;  // [client][thread]
  // One latency trace per (client, thread): (completion time, latency)
  // pairs, recorded only when cfg.sample_latency. Traces merge in fixed
  // (k, t) order after the run.
  std::vector<std::vector<std::pair<Nanos, Nanos>>> latency_traces;

  // Live-rebalance state (untouched unless cfg.migrate).
  core::ClusterPool pool;
  Bytes slab_bytes = 0;
  std::optional<RegionCutover> cutover;
  Nanos migrate_started_at = 0;
  Nanos migrate_cutover_at = 0;
  std::uint64_t ops_at_migrate_start = 0;
  std::uint64_t ops_at_cutover = 0;
};

// The async read loop of the hash workload (DriveCowbird), reads only —
// issue up to `window`, then harvest. Wiring is per (client, thread).
sim::Task<void> DriveClient(ScaleHarness& h, int k, int t) {
  sim::SimThread& thread = h.ThreadFor(k, t);
  auto& ctx = h.clients[static_cast<std::size_t>(k)]->thread(t);
  Rng rng(h.cfg.seed * 7919 + static_cast<std::uint64_t>(k) * 131 +
          static_cast<std::uint64_t>(t));
  const core::PollId poll = ctx.PollCreate();
  std::vector<core::ReqId> done;
  done.reserve(static_cast<std::size_t>(h.cfg.window));
  std::uint64_t& counter =
      h.ops[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)];
  // Opt-in latency bookkeeping. It draws no RNG values and charges no
  // simulated time, so op streams match a non-sampling run exactly.
  const bool sample = h.cfg.sample_latency;
  std::unordered_map<std::uint64_t, Nanos> issued_at;
  auto& trace = h.TraceFor(k, t);
  int outstanding = 0;
  for (;;) {
    if (outstanding < h.cfg.window) {
      const std::uint64_t key = rng.Below(h.cfg.records);
      co_await thread.Work(kAppCompute, sim::CpuCategory::kCompute);
      const std::uint64_t slot =
          rng.Below(static_cast<std::uint64_t>(h.cfg.window));
      auto id = co_await ctx.AsyncRead(
          thread, kRegion, key * h.cfg.record_size,
          kHeapBase + t * kHeapStride + slot * h.cfg.record_size,
          static_cast<std::uint32_t>(h.cfg.record_size));
      if (id.has_value()) {
        ctx.PollAdd(poll, *id);
        if (sample) issued_at[id->value()] = thread.simulation().Now();
        ++outstanding;
        continue;
      }
    }
    co_await ctx.PollWait(thread, poll, done, h.cfg.window, 0);
    if (done.empty()) {
      co_await thread.Idle(kPollIdle);
      continue;
    }
    if (sample) {
      const Nanos now = thread.simulation().Now();
      for (const core::ReqId id : done) {
        const auto it = issued_at.find(id.value());
        if (it == issued_at.end()) continue;
        trace.emplace_back(now, now - it->second);
        issued_at.erase(it);
      }
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      co_await thread.Work(rdma::cost::CopyCost(h.cfg.record_size),
                           sim::CpuCategory::kCompute);
      ++counter;
    }
    outstanding -= static_cast<int>(done.size());
  }
}

std::vector<std::uint64_t> PerClientOps(const ScaleHarness& h) {
  std::vector<std::uint64_t> totals;
  totals.reserve(static_cast<std::size_t>(h.cfg.clients));
  for (const auto& per_thread : h.ops) {
    std::uint64_t total = 0;
    for (const std::uint64_t count : per_thread) total += count;
    totals.push_back(total);
  }
  return totals;
}

}  // namespace

ScaleWorkloadResult RunScaleWorkload(const ScaleWorkloadConfig& config) {
  COWBIRD_CHECK(config.clients >= 1);
  COWBIRD_CHECK(config.memory_servers >= 1);
  ScaleHarness h(config);
  Cluster& cluster = h.cluster;
  sim::Simulation& sim = cluster.sim;
  for (int k = 0; k < config.clients; ++k) {
    for (int t = 0; t < config.threads_per_client; ++t) {
      sim.Spawn(DriveClient(h, k, t));
    }
  }

  if (config.migrate) {
    // The coordinator tick train: one tick every kMigrateTick from
    // migrate_start to the end of the run.
    for (Nanos when = config.migrate_start;
         when < config.warmup + config.measure; when += kMigrateTick) {
      sim.ScheduleAt(when, [&h, when] { h.MigrationTick(when); });
    }
  }

  sim.RunFor(config.warmup);
  const std::vector<std::uint64_t> warm = PerClientOps(h);
  const Nanos t0 = sim.Now();
  const std::uint64_t events0 = sim.EventsProcessed();
  sim.RunFor(config.measure);
  const Nanos elapsed = sim.Now() - t0;

  ScaleWorkloadResult result;
  result.client_ops = PerClientOps(h);
  for (int k = 0; k < config.clients; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    result.client_ops[kk] -= warm[kk];
    result.ops += result.client_ops[kk];
  }
  result.sim_events = sim.EventsProcessed() - events0;
  result.elapsed = elapsed;
  result.mops = Mops(result.ops, elapsed);

  if (config.sample_latency) {
    // Merge traces in fixed (client, thread) order and keep only ops that
    // completed inside the measure window.
    PercentileSampler sampler;
    for (const auto& trace : h.latency_traces) {
      for (const auto& [completed_at, latency] : trace) {
        if (completed_at <= t0) continue;
        sampler.Add(static_cast<double>(latency));
      }
    }
    result.latency_samples = sampler.count();
    if (sampler.count() > 0) {
      result.p50_latency = static_cast<Nanos>(sampler.Median());
      result.p99_latency = static_cast<Nanos>(sampler.P99());
    }
  }

  if (config.migrate) {
    result.migrations = h.cutover->done() ? 1 : 0;
    if (const core::RegionMigrator* migrator = h.cutover->migrator()) {
      result.migrate_bytes_copied = migrator->bytes_copied();
      result.migrate_dirty_marks = migrator->dirty_marks();
    }
    result.migrate_started_at = h.migrate_started_at;
    result.migrate_cutover_at = h.migrate_cutover_at;
    // Phase split of the measure window, defined only when the whole
    // migration happened inside it.
    if (result.migrations == 1 && h.migrate_started_at >= t0) {
      std::uint64_t warm_total = 0;
      for (const std::uint64_t w : warm) warm_total += w;
      const Nanos t_end = t0 + elapsed;
      const auto window_mops = [](std::uint64_t lo_ops, std::uint64_t hi_ops,
                                  Nanos lo, Nanos hi) {
        return hi > lo ? Mops(hi_ops - lo_ops, hi - lo) : 0.0;
      };
      result.mops_before = window_mops(warm_total, h.ops_at_migrate_start,
                                       t0, h.migrate_started_at);
      result.mops_during = window_mops(h.ops_at_migrate_start,
                                       h.ops_at_cutover,
                                       h.migrate_started_at,
                                       h.migrate_cutover_at);
      result.mops_after = window_mops(h.ops_at_cutover,
                                      warm_total + result.ops,
                                      h.migrate_cutover_at, t_end);
      if (config.sample_latency) {
        PercentileSampler before, during, after;
        for (const auto& trace : h.latency_traces) {
          for (const auto& [completed_at, latency] : trace) {
            if (completed_at <= t0) continue;
            PercentileSampler& phase =
                completed_at <= h.migrate_started_at ? before
                : completed_at <= h.migrate_cutover_at ? during
                                                       : after;
            phase.Add(static_cast<double>(latency));
          }
        }
        if (before.count() > 0) {
          result.p99_before = static_cast<Nanos>(before.P99());
        }
        if (during.count() > 0) {
          result.p99_during = static_cast<Nanos>(during.P99());
        }
        if (after.count() > 0) {
          result.p99_after = static_cast<Nanos>(after.P99());
        }
      }
    }
  }

  const FabricCounters fabric = cluster.Counters();
  result.switch_drops = fabric.switch_drops;
  result.ecn_marked = fabric.ecn_marked;
  result.pfc_pauses = fabric.pfc_pauses;
  result.retransmissions = fabric.retransmissions;
  result.cnps = fabric.cnps;
  result.telemetry = cluster.TakeSnapshot();
  return result;
}

}  // namespace cowbird::workload
