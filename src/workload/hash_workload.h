// The hash-index microbenchmark of Figures 1, 8, 12 and 13.
//
// A hash table of `records` fixed-size records is split between compute-
// local memory (local_fraction, 5% in the paper) and the remote pool. Each
// application thread repeatedly: picks a key, spends `app_compute` ns of
// CPU probing the index, then materializes the record — from local memory
// or through the configured remote-access paradigm. Throughput (MOPS) and
// the communication ratio (Figure 10's metric) are measured over a window
// of virtual time after warmup.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "spot/agent.h"
#include "telemetry/hub.h"

namespace cowbird::workload {

enum class Paradigm {
  kLocalMemory,    // upper bound: everything in compute-node DRAM
  kTwoSidedSync,   // SEND/RECV RPC per access
  kOneSidedSync,   // RDMA read + spin per access
  kOneSidedAsync,  // pipelined RDMA reads, window of `window`
  kCowbirdNoBatch, // Cowbird-Spot, engine batching disabled
  kCowbird,        // Cowbird-Spot with batching
  kCowbirdP4,      // Cowbird with the programmable-switch engine
  kAifm,           // AIFM cost model (Figure 12)
};

const char* ParadigmName(Paradigm p);

struct HashWorkloadConfig {
  Paradigm paradigm = Paradigm::kCowbird;
  int threads = 1;
  Bytes record_size = 256;
  std::uint64_t records = 1'000'000;
  double local_fraction = 0.05;
  Nanos app_compute = 60;   // hash + bucket probe CPU per operation
  int window = 100;         // async pipeline depth / poll batch
  Nanos warmup = Micros(300);
  Nanos measure = Millis(2);
  std::uint64_t seed = 1;
  // Fraction of operations that are remote *writes* (ablation: write
  // interference with the two engines' read-fencing policies).
  double write_fraction = 0.0;
  // Random RDMA packet loss injected on the host-facing links (ablation:
  // Go-Back-N recovery cost).
  double loss_rate = 0.0;
  spot::SpotAgent::Config agent;  // Cowbird engine knobs (batch_size etc.)
  // Optional telemetry hub: the tracer clock is re-seated onto the run's
  // private simulation, the client and engines are instrumented, and the
  // testbed's devices and fabric links are bound as labeled gauges. The
  // run's final metric state comes back in WorkloadResult::telemetry
  // (the per-run gauges leave the hub with the objects they read).
  telemetry::Hub* telemetry = nullptr;
  // Fired on the host thread at the boundaries of the measure window —
  // after warmup has drained and before the post-measure bookkeeping — so
  // a caller can sample process-level counters (wall clock, allocator
  // statistics) over the steady state only. Both are optional and have no
  // effect on the simulation itself.
  std::function<void()> on_measure_start;
  std::function<void()> on_measure_end;
};

struct WorkloadResult {
  double mops = 0;
  double comm_ratio = 0;       // comm CPU / total busy CPU across threads
  std::uint64_t ops = 0;
  std::uint64_t sim_events = 0;  // events dispatched over the measure window
  Nanos elapsed = 0;
  double offload_core_util = 0;  // spot-agent busy fraction (Cowbird only)
  // Filled when HashWorkloadConfig::telemetry was set.
  telemetry::Snapshot telemetry;
};

WorkloadResult RunHashWorkload(const HashWorkloadConfig& config);

// Closed-loop latency probe (Figure 13): a single thread keeps `inflight`
// operations outstanding and records per-operation completion latency.
struct LatencyResult {
  double median_us = 0;
  double p99_us = 0;
  std::uint64_t samples = 0;
  // Filled when LatencyProbeConfig::telemetry was set. Recorded spans stay
  // in the hub's tracer (clock frozen at the run's final virtual time), so
  // the caller can also export a Chrome trace after the probe returns.
  telemetry::Snapshot telemetry;
};

struct LatencyProbeConfig {
  Paradigm paradigm = Paradigm::kOneSidedSync;
  Bytes record_size = 256;
  int inflight = 1;  // >1 for the batched/async variants
  int samples = 2000;
  spot::SpotAgent::Config agent;
  telemetry::Hub* telemetry = nullptr;  // see HashWorkloadConfig::telemetry
};

LatencyResult RunLatencyProbe(const LatencyProbeConfig& config);

// Bandwidth-overhead experiment (Figure 14): the hash workload runs with
// the given paradigm while `tcp_flows` greedy bulk flows contend from the
// compute node toward a bystander server. RDMA traffic is prioritized
// *above* the user flows on the shared (priority-scheduled) compute uplink,
// bounding the worst case as in the paper. Returns the flows' aggregate
// goodput.
struct ContentionResult {
  double tcp_gbps = 0;
  double app_mops = 0;
};
ContentionResult RunContentionExperiment(const HashWorkloadConfig& config,
                                         int tcp_flows,
                                         BitRate compute_uplink);

}  // namespace cowbird::workload
