#include "chaos/runner.h"

#include <cstdio>
#include <deque>
#include <optional>
#include <sstream>
#include <vector>

#include "chaos/fault_injector.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/migration.h"
#include "workload/cluster.h"
#include "workload/cutover.h"

namespace cowbird::chaos {
namespace {

using core::CowbirdClient;
using core::ReqId;
using workload::ClusterHost;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;
// Issue no new operations past this point; drain until the hard deadline.
constexpr Nanos kIssueDeadline = Millis(20);
constexpr Nanos kDrainDeadline = Millis(40);

// Migration runs (plan.migrate): the primary server's slab is deliberately
// this small, so the region's hot head — every offset the workload touches —
// becomes its own range there and the cold tail spills to the second
// server. The scenario then live-migrates the hot range under traffic.
constexpr Bytes kMigrateRangeBytes = KiB(256);
constexpr std::uint64_t kPool2Base = 0x1000'0000;  // second server's slab
constexpr Nanos kMigrateTick = Micros(50);  // coordinator cadence

// Bystander-tenant traffic behind the incast/victim scenarios: 4 KiB
// closed-loop streams deep enough to push an egress queue past the ECN
// threshold. Starts almost immediately so it overlaps even the shortest
// workloads (the run's Halt() is what ends it).
constexpr Nanos kBgStart = Micros(50);
constexpr Bytes kBgBytes = 4096;
constexpr int kBgWindow = 24;
constexpr std::uint64_t kBgSpan = MiB(4);
constexpr std::uint64_t kBgMemBase = 0xA000'0000;    // scratch on responder
constexpr std::uint64_t kBgLocalBase = 0xC000'0000;  // requester staging

// The Section 7 testbed as a cluster spec: compute, memory and spot hosts on
// one switch. Congestion scenarios tighten the fabric; kNone leaves every
// knob at its default so pre-congestion runs stay byte-identical.
workload::ClusterSpec ChaosSpec(const ChaosOptions& opt) {
  using Host = workload::ClusterSpec::Host;
  workload::ClusterSpec spec;
  // The second memory server exists only for migration runs, appended after
  // the legacy hosts so their addresses and switch ports — and everything
  // seeded off insertion order — stay exactly as pre-migration runs had
  // them.
  if (opt.plan.migrate) spec.hosts.push_back(Host::kMemory);
  switch (opt.plan.congestion) {
    case CongestionScenario::kNone:
      break;
    case CongestionScenario::kIncast:
    case CongestionScenario::kVictim:
      spec.switches.egress_queue_capacity = KiB(64);
      spec.switches.ecn_threshold = KiB(16);
      spec.nic.dcqcn.enabled = true;
      break;
    case CongestionScenario::kPauseStorm:
      spec.switches.pfc_enabled = true;
      spec.switches.pfc_pause_threshold = KiB(32);
      spec.switches.pfc_resume_threshold = KiB(16);
      break;
  }
  return spec;
}

// The whole deterministic world of one chaos run: the testbed cluster, a
// client, the serving engine plus two Spot agents to fail over between,
// the fault injector, and the recorded history.
struct ChaosHarness {
  ChaosHarness(const ChaosOptions& opt, telemetry::Hub* hub)
      : options(opt),
        cluster(ChaosSpec(opt), hub),
        sim(cluster.sim),
        compute(cluster.client(0)),
        memory(cluster.memory(0)),
        injector(sim, opt.plan, opt.seed) {
    if (opt.plan.migrate) {
      // The elastic pool owns the slabs (it registers the MRs itself);
      // legacy runs keep the historical single RegisterMemory call so the
      // rkey sequence — and thus every golden-pinned byte — is untouched.
      pool.AddServer(*memory.dev, kPoolBase, kMigrateRangeBytes);
      pool.AddServer(*cluster.memory(1).dev, kPool2Base, MiB(80));
      if (hub != nullptr) pool.BindTelemetry(hub->metrics, telemetry::Labels{});
    } else {
      pool_mr = memory.dev->RegisterMemory(kPoolBase, MiB(64));
    }

    CowbirdClient::Config cc;
    cc.layout.base = 0x10000;
    cc.layout.threads = opt.workload.threads;
    cc.layout.meta_slots = 128;
    cc.layout.data_capacity = KiB(128);
    cc.layout.resp_capacity = KiB(128);
    client = &cluster.AddClient(0, cc);
    if (opt.plan.migrate) {
      // Preferred-first allocation carves the hot head on the primary
      // server and spills the tail to memory2; the client publishes the
      // pool's authoritative range table so both engines translate per
      // range from the very first attach.
      const auto region =
          pool.AllocateRegion(kRegion, kPoolBase, MiB(64), memory.id());
      COWBIRD_CHECK(region.has_value());
      client->RegisterRegion(*region);
      client->SetRegionRanges(kRegion, pool.RangesFor(kRegion));
    } else {
      client->RegisterRegion(core::RegionInfo{kRegion, memory.id(), kPoolBase,
                                              pool_mr->rkey, MiB(64)});
    }

    spot::SpotAgent::Config config;
    config.chaos_unsafe_skip_hazards = opt.break_fence;
    agent_a = &cluster.AddSpotAgent(config);
    agent_b = &cluster.AddSpotAgent(config);
    agent_a->Start();
    agent_b->Start();

    if (opt.engine == EngineKind::kP4) {
      p4::CowbirdP4Engine::Config ec;
      ec.chaos_unsafe_skip_hazards = opt.break_fence;
      p4::CowbirdP4Engine& p4 = cluster.AddP4Engine(ec);
      p4.Start();
      serving = p4;
    } else {
      serving = *agent_a;
    }
    cluster.Attach(*serving, *client);
    attached_agent = serving->agent;

    net::Switch& sw = cluster.sw();
    if (opt.plan.AnyPacketFaults()) {
      injector.Attach(sw.EgressLink(compute.nic.switch_port()));
      injector.Attach(sw.EgressLink(memory.nic.switch_port()));
      injector.Attach(sw.EgressLink(cluster.spot().nic.switch_port()));
      injector.Attach(compute.nic.uplink());
      injector.Attach(memory.nic.uplink());
      injector.Attach(cluster.spot().nic.uplink());
      // Migration-only links attach last so the legacy links keep their
      // historical per-link fault streams.
      if (opt.plan.migrate) {
        ClusterHost& memory2 = cluster.memory(1);
        injector.Attach(sw.EgressLink(memory2.nic.switch_port()));
        injector.Attach(memory2.nic.uplink());
      }
    }
    if (opt.plan.congestion == CongestionScenario::kIncast ||
        opt.plan.congestion == CongestionScenario::kVictim) {
      SetupBackgroundTraffic(opt.plan.congestion);
    }
    if (opt.plan.congestion == CongestionScenario::kPauseStorm) {
      // A storm of pause frames "received" at the switch egress: every
      // 200us between 1ms and 6ms, the links toward the memory and compute
      // hosts pause their data classes for 50us.
      for (Nanos when = Millis(1); when < Millis(6); when += Micros(200)) {
        sim.ScheduleAt(when, [this, &sw] {
          sw.EgressLink(memory.nic.switch_port()).PauseData(Micros(50));
          sw.EgressLink(compute.nic.switch_port()).PauseData(Micros(50));
        });
      }
    }
    for (const Nanos when : opt.plan.crashes) {
      sim.ScheduleAt(when, [this] { CrashServingEngine(); });
    }
    if (opt.plan.migrate) {
      // The copy stream (its QP connects here) moves the hot range to
      // memory2 in 16 KiB chunks, two in flight, so foreground writes race
      // it. The instance parks the way a crash detaches it.
      core::RegionMigrator::Config mc;
      mc.chunk = KiB(16);
      mc.window = 2;
      mc.telemetry = hub;
      cutover.emplace(cluster, pool, *client, kRegion, kPoolBase, 0, 1, mc,
                      /*halt=*/true);
      // Every coordinator tick is pre-scheduled up front rather than each
      // tick scheduling the next, so the train keeps the queue sequence
      // numbers the pinned outcomes were recorded with. Ticks on a finished
      // migration are cheap no-ops.
      for (Nanos when = opt.plan.migrate_start; when < kDrainDeadline;
           when += kMigrateTick) {
        sim.ScheduleAt(when, [this] {
          if (cutover->Tick(*serving) && cutover->done()) {
            attached_agent = serving->agent;
          }
        });
      }
    }
  }

  // One bystander flow: a closed-loop 4 KiB stream on its own QP pair.
  struct BgFlow {
    rdma::QpPair pair;
    bool write = false;
    std::uint64_t laddr = 0;
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t posted = 0;
  };

  // kIncast fans two read streams (served by the memory and spot hosts)
  // into the compute port, so the tenant under test shares the congested
  // egress with the bystander. kVictim aims two write streams at the
  // memory port instead: the tenant's own requests must cross a port
  // somebody else congested. Both shapes leave the fault plan's packet
  // streams untouched — the bystander packets go through the same
  // injector, which is part of the scenario's determinism surface.
  void SetupBackgroundTraffic(CongestionScenario scenario) {
    ClusterHost& spot = cluster.spot();
    bg_flows.reserve(2);
    if (scenario == CongestionScenario::kIncast) {
      const auto* mem_mr = memory.dev->RegisterMemory(kBgMemBase, kBgSpan);
      const auto* spot_mr = spot.dev->RegisterMemory(kBgMemBase, kBgSpan);
      bg_flows.push_back(BgFlow{ConnectQueuePairs(*compute.dev, *memory.dev),
                                /*write=*/false, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
      bg_flows.push_back(BgFlow{ConnectQueuePairs(*compute.dev, *spot.dev),
                                /*write=*/false, kBgLocalBase + kBgSpan,
                                spot_mr->base, spot_mr->rkey});
    } else {
      const auto* mem_mr = memory.dev->RegisterMemory(kBgMemBase, kBgSpan);
      bg_flows.push_back(BgFlow{ConnectQueuePairs(*compute.dev, *memory.dev),
                                /*write=*/true, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
      bg_flows.push_back(BgFlow{ConnectQueuePairs(*spot.dev, *memory.dev),
                                /*write=*/true, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
    }
    for (BgFlow& f : bg_flows) {
      sim.ScheduleAt(kBgStart, [this, &f] {
        for (int i = 0; i < kBgWindow; ++i) PostBg(f);
        PumpBg(f);
      });
    }
  }

  void PostBg(BgFlow& f) {
    const std::uint64_t slot = f.posted++ % (kBgSpan / kBgBytes);
    f.pair.a->PostSend(rdma::SendWqe{
        f.write ? rdma::WqeOp::kWrite : rdma::WqeOp::kRead, f.posted,
        f.laddr + slot * kBgBytes, f.raddr + slot * kBgBytes, f.rkey,
        static_cast<std::uint32_t>(kBgBytes), true});
  }

  void PumpBg(BgFlow& f) {
    while (f.pair.a_send_cq->Pop()) PostBg(f);
    sim.ScheduleAfter(500, [this, &f] { PumpBg(f); });
  }

  // One engine serves at a time. A crash halts it mid-flight (and stops
  // the switch's probe loop if it was the P4 engine), then re-attaches the
  // instance to the Spot agent it was not last attached to, resuming from
  // the exported snapshot. A crash while the instance is parked for the
  // cutover detaches nothing: it only moves the cutover's target.
  void CrashServingEngine() {
    spot::SpotAgent& standby = attached_agent == agent_a ? *agent_b
                                                         : *agent_a;
    ++crashes_executed;
    if (cutover && cutover->parked()) {
      serving = standby;
      return;
    }
    const auto snapshot = cluster.Detach(*serving, *client, /*halt=*/true);
    if (serving->agent == nullptr) cluster.p4().StopProbing();
    serving = standby;
    attached_agent = &standby;
    cluster.Attach(standby, *client, {}, snapshot ? &*snapshot : nullptr);
  }

  const ChaosOptions& options;
  workload::Cluster cluster;
  sim::Simulation& sim;  // the cluster's event loop
  ClusterHost& compute;
  ClusterHost& memory;
  const rdma::MemoryRegion* pool_mr = nullptr;
  CowbirdClient* client = nullptr;
  spot::SpotAgent* agent_a = nullptr;
  spot::SpotAgent* agent_b = nullptr;
  // The engine that serves the instance, or that it re-attaches to at the
  // cutover while parked.
  std::optional<workload::Cluster::Engine> serving;
  // The Spot agent the instance was last attached to (null after P4).
  spot::SpotAgent* attached_agent = nullptr;
  core::ClusterPool pool;
  std::optional<workload::RegionCutover> cutover;  // plan.migrate only
  FaultInjector injector;
  std::vector<BgFlow> bg_flows;
  HistoryRecorder recorder;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t crashes_executed = 0;
  int threads_done = 0;
};

// One application thread: random reads/writes over its own slots, every
// operation recorded as an interval in the shared history.
sim::Task<void> WorkloadThread(ChaosHarness& h, int t) {
  const WorkloadParams& wl = h.options.workload;
  sim::SimThread thread(*h.compute.machine, "chaos-app");
  auto& ctx = h.client->thread(t);
  const core::PollId poll = ctx.PollCreate();
  Rng rng(h.options.seed * 1000003 + static_cast<std::uint64_t>(t) * 7919 +
          1);

  const std::uint64_t scratch = kHeap + static_cast<std::uint64_t>(t) *
                                            MiB(4);
  const std::uint64_t dest_base =
      kHeap + MiB(32) + static_cast<std::uint64_t>(t) * MiB(1);
  std::vector<std::uint64_t> versions(wl.slots_per_thread, 0);

  struct PendingEntry {
    std::uint64_t seq = 0;      // client-side per-type sequence
    std::uint64_t hist_id = 0;  // HistoryRecorder op id
    std::uint64_t dest = 0;     // reads only
    std::uint32_t length = 0;
  };
  std::deque<PendingEntry> reads, writes;
  int dest_rr = 0;

  auto harvest = [&h, &ctx, &reads, &writes] {
    while (!reads.empty() && ctx.reads_retired() >= reads.front().seq) {
      const PendingEntry& r = reads.front();
      std::vector<std::uint8_t> observed(r.length);
      h.compute.mem.Read(r.dest, observed);
      h.recorder.OnComplete(r.hist_id, h.sim.Now(),
                            HistoryRecorder::Digest(observed));
      ++h.reads_checked;
      reads.pop_front();
    }
    while (!writes.empty() && ctx.writes_retired() >= writes.front().seq) {
      h.recorder.OnComplete(writes.front().hist_id, h.sim.Now());
      ++h.writes_completed;
      writes.pop_front();
    }
  };

  std::vector<std::uint8_t> payload;
  for (int i = 0; i < wl.ops_per_thread && h.sim.Now() < kIssueDeadline;) {
    const int slot = static_cast<int>(rng.Below(
        static_cast<std::uint64_t>(wl.slots_per_thread)));
    const std::uint64_t offset =
        static_cast<std::uint64_t>(t * wl.slots_per_thread + slot) * 4096;
    if (rng.Bernoulli(wl.write_ratio)) {
      const std::uint64_t version = versions[slot] + 1;
      payload.assign(wl.len, 0);
      for (int b = 0; b < 8; ++b) {
        payload[b] = static_cast<std::uint8_t>(version >> (8 * b));
        payload[8 + b] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(offset) >> (8 * b));
      }
      for (std::uint32_t b = 16; b < wl.len; ++b) {
        payload[b] = static_cast<std::uint8_t>(
            version * 37 + static_cast<std::uint64_t>(slot));
      }
      h.compute.mem.Write(scratch, payload);
      auto id = co_await ctx.AsyncWrite(thread, kRegion, scratch, offset,
                                        wl.len);
      if (!id.has_value()) {
        harvest();
        co_await thread.Idle(Micros(10));
        continue;
      }
      versions[slot] = version;
      const std::uint64_t hist_id =
          h.recorder.OnInvoke(t, /*is_write=*/true, kRegion, offset, wl.len,
                              h.sim.Now(), HistoryRecorder::Digest(payload));
      writes.push_back(PendingEntry{id->seq(), hist_id, 0, wl.len});
      ctx.PollAdd(poll, *id);
    } else {
      const std::uint64_t dest =
          dest_base + static_cast<std::uint64_t>(dest_rr++ % 64) * 4096;
      auto id = co_await ctx.AsyncRead(thread, kRegion, offset, dest,
                                       wl.len);
      if (!id.has_value()) {
        harvest();
        co_await thread.Idle(Micros(10));
        continue;
      }
      const std::uint64_t hist_id = h.recorder.OnInvoke(
          t, /*is_write=*/false, kRegion, offset, wl.len, h.sim.Now());
      reads.push_back(PendingEntry{id->seq(), hist_id, dest, wl.len});
    }
    ++i;

    while (static_cast<int>(reads.size() + writes.size()) >=
           wl.max_outstanding) {
      const auto done = co_await ctx.PollWait(thread, poll, 16, 0);
      harvest();
      if (static_cast<int>(reads.size() + writes.size()) <
          wl.max_outstanding) {
        break;
      }
      if (done.empty()) co_await thread.Idle(Micros(5));
      if (h.sim.Now() >= kDrainDeadline) break;
    }
    if (h.sim.Now() >= kDrainDeadline) break;
  }

  // Drain: whatever never retires by the deadline stays open in the
  // history and the checker reports it.
  while (!(reads.empty() && writes.empty()) &&
         h.sim.Now() < kDrainDeadline) {
    (void)co_await ctx.PollWait(thread, poll, 16, Micros(50));
    harvest();
  }
  if (++h.threads_done == h.options.workload.threads) h.sim.Halt();
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  return kind == EngineKind::kSpot ? "spot" : "p4";
}

std::optional<EngineKind> ParseEngineKind(std::string_view name) {
  if (name == "spot") return EngineKind::kSpot;
  if (name == "p4") return EngineKind::kP4;
  return std::nullopt;
}

ChaosOptions SweepOptions(EngineKind engine, std::uint64_t seed,
                          bool break_fence) {
  ChaosOptions opt;
  opt.engine = engine;
  opt.seed = seed;
  opt.break_fence = break_fence;
  opt.workload.threads = 2;
  opt.workload.ops_per_thread = 200;
  if (break_fence) {
    // Hot single slot maximizes read-after-write conflicts so the planted
    // bug has every chance to manifest; no packet faults needed.
    opt.workload.slots_per_thread = 1;
    opt.workload.write_ratio = 0.5;
  } else {
    opt.plan = FaultPlan::FromSeed(seed, /*crash_count=*/seed % 2 ? 2 : 0);
  }
  return opt;
}

std::string WorkloadParams::Serialize() const {
  std::ostringstream out;
  out << "threads=" << threads << " slots=" << slots_per_thread
      << " len=" << len << " ops=" << ops_per_thread;
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6g", write_ratio);
  out << " write_ratio=" << ratio << " outstanding=" << max_outstanding;
  return out.str();
}

std::optional<WorkloadParams> WorkloadParams::Parse(std::string_view line) {
  WorkloadParams wl;
  std::istringstream in{std::string(line)};
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "threads") {
      wl.threads = std::atoi(value.c_str());
    } else if (key == "slots") {
      wl.slots_per_thread = std::atoi(value.c_str());
    } else if (key == "len") {
      wl.len = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (key == "ops") {
      wl.ops_per_thread = std::atoi(value.c_str());
    } else if (key == "write_ratio") {
      wl.write_ratio = std::atof(value.c_str());
    } else if (key == "outstanding") {
      wl.max_outstanding = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  return wl;
}

ChaosResult RunChaos(const ChaosOptions& options, telemetry::Hub* hub) {
  COWBIRD_CHECK(options.workload.threads >= 1);
  COWBIRD_CHECK(options.workload.len >= 16 && options.workload.len <= 4096);
  COWBIRD_CHECK(options.workload.max_outstanding >= 1 &&
                options.workload.max_outstanding <= 32);

  ChaosHarness harness(options, hub);
  for (int t = 0; t < options.workload.threads; ++t) {
    harness.sim.Spawn(WorkloadThread(harness, t));
  }
  harness.sim.Run();

  ChaosResult result;
  result.history = harness.recorder.ops();
  result.violations = CheckHistory(result.history);
  result.reads_checked = harness.reads_checked;
  result.writes_completed = harness.writes_completed;
  result.faults_injected = harness.injector.decided_total();
  result.counters_exact = harness.injector.CountersExact();
  result.decided_dropped = harness.injector.decided_dropped();
  result.decided_duplicated = harness.injector.decided_duplicated();
  result.decided_reordered = harness.injector.decided_reordered();
  result.decided_delayed = harness.injector.decided_delayed();
  result.crashes_executed = harness.crashes_executed;
  if (harness.cutover) {
    result.migrations_executed = harness.cutover->done() ? 1 : 0;
    if (const core::RegionMigrator* migrator = harness.cutover->migrator()) {
      result.migrate_bytes_copied = migrator->bytes_copied();
      result.migrate_dirty_marks = migrator->dirty_marks();
    }
  }
  const workload::FabricCounters fabric = harness.cluster.Counters();
  result.ecn_marked = fabric.ecn_marked;
  result.pfc_pauses = fabric.pfc_pauses;
  result.link_pauses = fabric.link_pauses;
  result.cnps = fabric.cnps;
  result.telemetry = harness.cluster.TakeSnapshot();
  return result;
}

}  // namespace cowbird::chaos
