// The rack-scale fan-in workload: K compute clients and M memory servers
// around one top-of-rack switch (a workload::Cluster), every client
// running the hash workload's closed loop, reads only and every op remote,
// against a pool on memory server k % M, all offloaded through one engine —
// a single Cowbird-Spot agent serving K instances (fan-in), or the P4
// engine on the switch. It runs on the hash workload's harness
// (hash_workload.cc): one client on one server retires exactly the ops and
// events of RunHashWorkload with local_fraction = 0.
//
// The default shape is the 16-node rack of the ROADMAP: 12 clients + 2
// memory servers + 1 spot host + 1 switch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "rdma/params.h"
#include "spot/agent.h"
#include "telemetry/hub.h"
#include "workload/hash_workload.h"

namespace cowbird::workload {

struct ScaleWorkloadConfig {
  // Engine serving every client: Paradigm::kCowbird (one spot agent,
  // fan-in) or Paradigm::kCowbirdP4 (engine on the switch).
  Paradigm paradigm = Paradigm::kCowbird;
  int clients = 12;
  int memory_servers = 2;
  int threads_per_client = 2;
  Bytes record_size = 128;
  std::uint64_t records = 100'000;  // per memory-server pool
  int window = 32;
  Nanos warmup = Micros(200);
  Nanos measure = Millis(1);
  std::uint64_t seed = 1;
  spot::SpotAgent::Config agent;
  // Optional telemetry: every client, engine and fabric object of the run is
  // bound to this hub; the final metric state comes back in
  // ScaleWorkloadResult::telemetry.
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
  // under the foreground read traffic, in RegionCutover's default 64 KiB
  // chunks, 4 in flight. Off by default; a non-migrating run is
  // byte-identical to a pre-rebalance build.
  bool migrate = false;
  Nanos migrate_start = Micros(400);
};

struct ScaleWorkloadResult {
  std::uint64_t ops = 0;  // total over the measure window
  std::vector<std::uint64_t> client_ops;  // per client, the determinism pin
  std::uint64_t sim_events = 0;
  Nanos elapsed = 0;
  double mops = 0;
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
  // FabricCounters::retransmissions_by_node: the hosts whose NIC resent.
  std::vector<std::pair<std::string, std::uint64_t>> retransmissions_by_node;
  // The P4 engine's Go-Back-N rewinds (its QPs are not a NIC's, so they
  // are not in `retransmissions`); 0 on Spot.
  std::uint64_t gbn_recoveries = 0;
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
