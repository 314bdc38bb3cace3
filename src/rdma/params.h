// Calibrated cost parameters for the simulated fabric.
//
// The CPU-side costs come from the paper's Figure 2 (rdtsc instrumentation
// of the Mellanox OFED driver): a post is lock + WQE build + doorbell ring,
// a poll is lock + CQE check. Cowbird's client library replaces all of that
// with a handful of local-memory writes/reads. The ~10x per-operation gap
// between these two columns is the paper's central observation; everything
// in the evaluation follows from it.
#pragma once

#include "common/units.h"
#include "rdma/wire.h"

namespace cowbird::rdma {

// The one CPU cost table, charged wherever the CPU time is spent (the verb
// wrappers, the engines, the client library and the application models).
namespace cost {

// ibv_post_send() — Figure 2, red segments.
inline constexpr Nanos kPostLock = 100;
inline constexpr Nanos kPostWqe = 150;
inline constexpr Nanos kPostDoorbell = 200;
// ibv_poll_cq(), one check — Figure 2, blue segments.
inline constexpr Nanos kPollLock = 80;
inline constexpr Nanos kPollCqe = 120;

// Doorbell batching (linked work-request lists / wide CQ polls): the lock
// and doorbell are paid once per batch, and the marginal WQE/CQE cost is a
// cache-resident descriptor write/read. This is how Redy and the
// Cowbird-Spot agent reach high message rates on few cores; applications
// that issue one request at a time (Figures 1/2/8 baselines) cannot use it
// on their critical path.
inline constexpr Nanos kPostWqeEach = 8;
inline constexpr Nanos kPollCqeEach = 6;
// Dedicated engine event loop (Cowbird-Spot agent): single-threaded send
// queue (no lock) and write-combined doorbells amortized across the whole
// drain pass — the fixed cost collapses to a store-fence + MMIO write.
inline constexpr Nanos kEnginePostFixed = 50;

// Cowbird client library (Section 4.3): plain local-memory writes for the
// request metadata + tail bump, and integer comparisons for completion
// checks. No locks, no fences, no doorbells.
inline constexpr Nanos kCowbirdPost = 40;
inline constexpr Nanos kCowbirdPoll = 20;

// First-touch DRAM access (row miss): what a *local* random record access
// pays for its first cache line. Subsequent lines stream at copy rate.
// This is the quantity Cowbird's ~60 ns issue+poll path is competing
// against — a remote record via Cowbird costs the client little more than
// a couple of cache misses, which is why Figure 1 shows it tracking local
// memory.
inline constexpr Nanos kLocalAccess = 90;
// Per-byte cost of touching/copying sequential memory.
inline constexpr double kCopyNsPerByte = 0.05;
// Leading-line latency for data that was just DMA-written by the NIC:
// DDIO places it in the LLC, so the client's delivery copy out of the
// response ring starts from L3, not DRAM.
inline constexpr Nanos kLlcAccess = 40;

constexpr Nanos PostTotal() { return kPostLock + kPostWqe + kPostDoorbell; }
constexpr Nanos PollTotal() { return kPollLock + kPollCqe; }

constexpr Nanos EnginePostBatch(int n) {
  return kEnginePostFixed + n * kPostWqeEach;
}

// Cost to materialize `n` sequential bytes that are not in L1/L2.
constexpr Nanos CopyCost(Bytes n) {
  const auto copy = static_cast<Nanos>(kCopyNsPerByte * static_cast<double>(n));
  return copy > 20 ? copy : 20;
}
// Cost of a local random record access: leading DRAM miss + streaming.
constexpr Nanos LocalRecordCost(Bytes n) {
  return kLocalAccess +
         static_cast<Nanos>(kCopyNsPerByte * static_cast<double>(n));
}
// Client-side cost to copy a completed read out of the response ring
// (LLC-resident thanks to DDIO).
constexpr Nanos DeliveryCopyCost(Bytes n) {
  return kLlcAccess +
         static_cast<Nanos>(kCopyNsPerByte * static_cast<double>(n));
}

}  // namespace cost

// DCQCN-style per-QP rate control (the congestion half of the RoCEv2
// engine split; the GBN half is rdma::ReliabilityManager). Disabled by
// default: with `enabled` false the device builds no CongestionManager,
// stamps no ECT bits, and every pre-existing run stays byte-identical.
// The control-law constants live in rdma/congestion.cc.
struct DcqcnConfig {
  bool enabled = false;
  double min_rate_gbps = 1.0;      // floor under multiplicative decrease
  double rate_ai_gbps = 2.0;       // additive-increase step
  Nanos cnp_interval = Micros(5);  // min gap between CNPs per flow
};

struct NicConfig {
  // Retransmission timeout. Datacenter RTTs here are a few microseconds;
  // the paper's recovery relies on data-plane timeouts in the same regime.
  Nanos retransmit_timeout = Micros(100);
  // Congestion control (ECN echo + rate limiting); off by default.
  DcqcnConfig dcqcn;
};

}  // namespace cowbird::rdma
