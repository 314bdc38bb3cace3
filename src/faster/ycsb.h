// YCSB benchmark harness for the FASTER port (Figures 9, 10, 11).
//
// Load phase: `records` upserts with fixed-size values whose first 8 bytes
// embed the key (every read, through any backend, is verified end-to-end).
// Run phase: each thread issues a 95% read / 5% update mix over Zipfian
// (theta = 0.99) or uniform keys, pipelining storage reads up to
// kPipelineDepth outstanding per thread and pumping completions via
// IDevice::Poll — the structure of the paper's IDevice integration
// (Section 7).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "spot/agent.h"

namespace cowbird::faster {

enum class Backend {
  kLocal,          // purely local memory (upper bound)
  kSsd,            // FASTER's default secondary storage
  kOneSidedSync,   // remote memory via sync one-sided RDMA
  kOneSidedAsync,  // remote memory via pipelined one-sided RDMA
  kCowbirdSpot,    // Cowbird with the spot-VM offload engine
  kCowbirdP4,      // Cowbird with the programmable-switch offload engine
  kRedy,           // Redy: batched RDMA with pinned compute-node I/O threads
};

const char* BackendName(Backend b);

struct YcsbConfig {
  Backend backend = Backend::kCowbirdSpot;
  int threads = 1;
  std::uint32_t value_size = 64;
  std::uint64_t records = 150'000;
  bool zipfian = true;
  // Mutable-region budget as a fraction of total log size (paper: 5 GB of
  // 18-24 GB ≈ 20-28%).
  double memory_fraction = 0.25;
  Nanos warmup = Micros(300);
  Nanos measure = Millis(2);
  std::uint64_t seed = 1;
  spot::SpotAgent::Config agent;
};

struct YcsbResult {
  double mops = 0;
  double comm_ratio = 0;
  std::uint64_t ops = 0;
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t verify_failures = 0;
  double remote_read_fraction = 0;
};

YcsbResult RunYcsb(const YcsbConfig& config);

}  // namespace cowbird::faster
