// The rack-scale fan-in workload: K compute clients and M memory servers
// around one top-of-rack switch (a workload::Cluster), every client
// running the async read loop of the hash workload against a pool on
// memory server k % M, all offloaded through one engine — a single
// Cowbird-Spot agent serving K instances (fan-in), or the P4 engine on the
// switch.
//
// The default shape is the 16-node scaling fabric of the ROADMAP: 12
// clients + 2 memory servers + 1 spot host + 1 switch. With `split` the
// cluster partitions one PDES domain per node; a split run's per-client
// operation counts are bit-identical for any worker count, which the
// scale tests and the sim_throughput split-scaling section pin.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "rdma/params.h"
#include "spot/agent.h"
#include "telemetry/hub.h"
#include "workload/cluster.h"
#include "workload/hash_workload.h"

namespace cowbird::workload {

// The RackShape fields (client_groups, client/trunk propagation, the split
// horizon policy) pass straight through to the cluster.
struct ScaleWorkloadConfig : RackShape {
  // Engine serving every client: Paradigm::kCowbird (one spot agent,
  // fan-in) or Paradigm::kCowbirdP4 (engine on the switch).
  Paradigm paradigm = Paradigm::kCowbird;
  int clients = 12;
  int memory_servers = 2;
  int threads_per_client = 2;
  Bytes record_size = 128;
  std::uint64_t records = 100'000;  // per memory-server pool
  Nanos app_compute = 60;
  int window = 32;
  // Back-off between completion polls while the window is full and nothing
  // has finished. The default spins hard; completions are probe-paced
  // (micro-seconds end to end), so coarser values model a client that
  // parks instead of busy-polling — and stop the idle polls from flooring
  // every domain's epoch horizon at the client-link lookahead.
  Nanos poll_idle = 300;
  // Per-client increment on top of poll_idle (client k parks for
  // poll_idle + k * poll_jitter). Jittered back-off is how real fleets
  // avoid herd synchronization; here it also decorrelates the poll streams
  // so the per-group epoch horizons see sparse local activity instead of
  // fabric-wide lockstep bursts. Deterministic: a function of the client
  // index only.
  Nanos poll_jitter = 0;
  Nanos warmup = Micros(200);
  Nanos measure = Millis(1);
  std::uint64_t seed = 1;
  spot::SpotAgent::Config agent;
  // kCowbirdP4 only: overrides the engine's probe pacing (0 keeps the
  // engine default of one probe per 2 us). Sparse probing models a switch
  // pipeline that amortizes ring fetches; it also keeps the probe packets
  // from being the densest event stream in every rack neighborhood.
  Nanos p4_probe_interval = 0;
  rdma::CostModel costs;
  // One PDES domain per topology node, executed by `split_workers` threads
  // (0 → hardware concurrency). Bit-deterministic for any worker count.
  bool split = false;
  int split_workers = 0;
  // Split only: pack the per-node domains down to `pack_budget` domains
  // (net::PackDomains) using per-node event rates measured by a short
  // deterministic profiling pre-run. The budget is an explicit constant —
  // never the worker count — so a packed run's outcome stays bit-identical
  // for any number of workers.
  bool packed = false;
  int pack_budget = 8;
  // Optional telemetry: sharded per domain (telemetry::HubShards) and merged
  // N-way into the caller's hub after the run.
  telemetry::Hub* telemetry = nullptr;
  // Incast: every client targets memory server 0 instead of k % M, so all
  // K client flows converge on one switch egress port.
  bool incast = false;
  // Fabric congestion profile, passed through to the cluster's switch and
  // NIC configs. Defaults keep the fabric byte-identical to the uncontended
  // runs.
  Bytes egress_queue_capacity = MiB(4);
  Bytes ecn_threshold = 0;
  bool pfc = false;
  rdma::DcqcnConfig dcqcn;
  // Go-Back-N timeout for every NIC. Raise well above the congested RTT
  // when DCQCN paces flows, or pacing delays read as loss and the rewinds
  // re-execute whole read windows.
  Nanos retransmit_timeout = Micros(100);
  // Records per-op issue→completion latency and reports p50/p99 over the
  // measure window. Off by default; enabling draws no extra RNG values, so
  // the op streams are unchanged.
  bool sample_latency = false;
  // Live rebalance (requires memory_servers >= 2): client 0's region is
  // allocated from a ClusterPool on memory server 0 and, at `migrate_start`
  // (absolute sim time, warmup included), live-migrated to memory server 1
  // while every client keeps issuing — copy pass, cutover, re-attach, all
  // under the foreground read traffic. Off by default; a non-migrating run
  // is byte-identical to a pre-rebalance build.
  bool migrate = false;
  Nanos migrate_start = Micros(400);
  Bytes migrate_chunk = KiB(64);
  int migrate_window = 4;  // outstanding copy WRITEs
};

struct ScaleWorkloadResult {
  std::uint64_t ops = 0;  // total over the measure window
  std::vector<std::uint64_t> client_ops;  // per client, the determinism pin
  std::uint64_t sim_events = 0;
  Nanos elapsed = 0;
  double mops = 0;
  // Split-run epoch accounting over the measure window (zero when serial).
  // `epochs` counts barrier rounds; `epochs_skipped` sums the per-domain
  // rounds a domain sat out because its horizon granted no work. Both are
  // deterministic, so the horizon A/B benchmarks can gate on them.
  std::uint64_t epochs = 0;
  std::uint64_t epochs_skipped = 0;
  int domains = 0;
  telemetry::Snapshot telemetry;  // filled when config.telemetry was set
  // Measure-window latency percentiles (only when config.sample_latency).
  Nanos p50_latency = 0;
  Nanos p99_latency = 0;
  std::uint64_t latency_samples = 0;
  // Whole-run congestion counters (warmup included).
  std::uint64_t switch_drops = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t cnps = 0;  // CNPs received across every NIC
  // Live-rebalance observability (all zero unless config.migrate). The
  // before/during/after split covers the measure window only: before ends
  // at migrate_start, during spans copy + cutover, after is post-cutover
  // steady state. Phase p99s need config.sample_latency too.
  std::uint64_t migrations = 0;
  std::uint64_t migrate_bytes_copied = 0;
  std::uint64_t migrate_dirty_marks = 0;
  Nanos migrate_started_at = 0;
  Nanos migrate_cutover_at = 0;
  double mops_before = 0;
  double mops_during = 0;
  double mops_after = 0;
  Nanos p99_before = 0;
  Nanos p99_during = 0;
  Nanos p99_after = 0;
};

ScaleWorkloadResult RunScaleWorkload(const ScaleWorkloadConfig& config);

}  // namespace cowbird::workload
