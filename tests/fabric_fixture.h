// Shared test vocabulary over the cluster builder: the fabric addresses of
// the default workload::ClusterSpec (compute node, memory pool and spot node
// on one switch — the testbed of Section 7 in miniature), deterministic
// payloads, blocking read/write verbs over a Cowbird client, and the fixture
// the engine tests share.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "sim/task.h"
#include "sim/thread.h"
#include "workload/cluster.h"

namespace cowbird::testing {

// Addresses follow spec order: clients first, then the other hosts.
inline constexpr net::NodeId kComputeId = 1;
inline constexpr net::NodeId kMemoryId = 2;
inline constexpr net::NodeId kSpotId = 3;

inline std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  return data;
}

// Registers `bytes` of memory server 0 at `base` and returns them as region
// `id`, ready for CowbirdClient::RegisterRegion.
inline core::RegionInfo PoolRegion(workload::Cluster& cluster,
                                   std::uint64_t base, Bytes bytes,
                                   std::uint16_t id = 1) {
  const rdma::MemoryRegion* mr =
      cluster.memory(0).dev->RegisterMemory(base, bytes);
  return core::RegionInfo{id, cluster.memory(0).id(), base, mr->rkey, bytes};
}

// A client of `threads` contexts laid out at `base`, with 64-slot metadata
// rings and 64 KiB data and response rings: small enough that a test wraps
// them.
inline core::CowbirdClient::Config SmallRings(int threads,
                                              std::uint64_t base = 0x10000) {
  core::CowbirdClient::Config config;
  config.layout.base = base;
  config.layout.threads = threads;
  config.layout.meta_slots = 64;
  config.layout.data_capacity = KiB(64);
  config.layout.resp_capacity = KiB(64);
  return config;
}

// Issues a read on thread context `t` of `client` (retrying while its rings
// are full), polls until it completes, and returns the bytes it landed at
// `dest` on the client's host.
inline sim::Task<std::vector<std::uint8_t>> ReadAndWait(
    workload::Cluster& cluster, core::CowbirdClient& client, int t,
    sim::SimThread& thread, std::uint64_t offset, std::uint32_t len,
    std::uint64_t dest, std::uint16_t region = 1) {
  auto& ctx = client.thread(t);
  std::optional<core::ReqId> id;
  while (!(id = co_await ctx.AsyncRead(thread, region, offset, dest, len))) {
    co_await thread.Idle(Micros(5));
  }
  const core::PollId poll = ctx.PollCreate();
  ctx.PollAdd(poll, *id);
  while ((co_await ctx.PollWait(thread, poll, 1, Millis(5))).empty()) {
  }
  std::vector<std::uint8_t> out(len);
  cluster.client_at(client.descriptor().compute_node).mem.Read(dest, out);
  co_return out;
}

// The write counterpart: `len` bytes at local `src` to `offset`.
inline sim::Task<core::ReqId> WriteAndWait(core::CowbirdClient& client, int t,
                                           sim::SimThread& thread,
                                           std::uint64_t src,
                                           std::uint64_t offset,
                                           std::uint32_t len,
                                           std::uint16_t region = 1) {
  auto& ctx = client.thread(t);
  std::optional<core::ReqId> id;
  while (!(id = co_await ctx.AsyncWrite(thread, region, src, offset, len))) {
    co_await thread.Idle(Micros(5));
  }
  const core::PollId poll = ctx.PollCreate();
  ctx.PollAdd(poll, *id);
  while ((co_await ctx.PollWait(thread, poll, 1, Millis(5))).empty()) {
  }
  co_return *id;
}

// The default cluster with an app thread on its compute node; a test adds
// the client instance (`client_`) and its engine, then drives the instance
// with the blocking verbs.
class ClusterTest : public ::testing::Test {
 public:
  sim::Task<std::vector<std::uint8_t>> ReadAndWait(int t,
                                                   std::uint64_t offset,
                                                   std::uint32_t len,
                                                   std::uint64_t dest) {
    return ReadAndWait(*client_, t, offset, len, dest);
  }
  sim::Task<std::vector<std::uint8_t>> ReadAndWait(core::CowbirdClient& client,
                                                   int t, std::uint64_t offset,
                                                   std::uint32_t len,
                                                   std::uint64_t dest) {
    return testing::ReadAndWait(f_, client, t, *app_thread_, offset, len,
                                dest);
  }
  sim::Task<core::ReqId> WriteAndWait(int t, std::uint64_t src,
                                      std::uint64_t offset,
                                      std::uint32_t len) {
    return WriteAndWait(*client_, t, src, offset, len);
  }
  sim::Task<core::ReqId> WriteAndWait(core::CowbirdClient& client, int t,
                                      std::uint64_t src, std::uint64_t offset,
                                      std::uint32_t len) {
    return testing::WriteAndWait(client, t, *app_thread_, src, offset, len);
  }

  workload::Cluster f_{workload::ClusterSpec{}};
  core::CowbirdClient* client_ = nullptr;
  std::unique_ptr<sim::SimThread> app_thread_ =
      std::make_unique<sim::SimThread>(*f_.client(0).machine, "app");
};

}  // namespace cowbird::testing
