// Phase I control plane: setup and teardown over the wire.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "p4/control.h"
#include "p4/engine.h"

namespace cowbird::p4 {
namespace {

using core::CowbirdClient;
using core::ReqId;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

TEST(ControlMessage, SetupRoundTrip) {
  ControlMessage m;
  m.op = ControlOp::kSetup;
  m.rpc_id = 77;
  m.descriptor.instance_id = 5;
  m.descriptor.compute_node = 1;
  m.descriptor.compute_rkey = 0xABCD;
  m.descriptor.layout.base = 0x10000;
  m.descriptor.layout.threads = 4;
  m.descriptor.layout.meta_slots = 256;
  m.descriptor.layout.data_capacity = 65536;
  m.descriptor.layout.resp_capacity = 131072;
  m.descriptor.regions.push_back(
      core::RegionInfo{1, 2, 0x100000, 0xDEAD, MiB(64)});
  m.descriptor.regions.push_back(
      core::RegionInfo{2, 2, 0x9000000, 0xBEEF, MiB(16)});
  m.conn.compute = HostEndpoint{1, 10, 0x800, 5000};
  m.conn.probe = HostEndpoint{1, 11, 0x801, 5500};
  m.conn.wr_compute = HostEndpoint{1, 13, 0x803, 6500};
  m.conn.memory.push_back(
      {HostEndpoint{2, 12, 0x802, 6000}, HostEndpoint{2, 14, 0x804, 7000}});

  const auto raw = m.Serialize();
  const auto parsed = ControlMessage::Parse(raw);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ControlOp::kSetup);
  EXPECT_EQ(parsed->rpc_id, 77u);
  EXPECT_EQ(parsed->descriptor.instance_id, 5u);
  EXPECT_EQ(parsed->descriptor.layout.threads, 4);
  EXPECT_EQ(parsed->descriptor.layout.resp_capacity, 131072u);
  ASSERT_EQ(parsed->descriptor.regions.size(), 2u);
  EXPECT_EQ(parsed->descriptor.regions[1].rkey, 0xBEEFu);
  EXPECT_EQ(parsed->conn.probe.switch_qpn, 0x801u);
  ASSERT_EQ(parsed->conn.memory.size(), 1u);
  EXPECT_EQ(parsed->conn.memory[0].read.start_psn, 6000u);
  EXPECT_EQ(parsed->conn.wr_compute.host_qpn, 13u);
  EXPECT_EQ(parsed->conn.memory[0].write.switch_qpn, 0x804u);
}

TEST(ControlMessage, TeardownRoundTrip) {
  ControlMessage m;
  m.op = ControlOp::kTeardown;
  m.rpc_id = 3;
  m.descriptor.instance_id = 9;
  const auto parsed = ControlMessage::Parse(m.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ControlOp::kTeardown);
  EXPECT_EQ(parsed->descriptor.instance_id, 9u);
}

TEST(ControlMessage, GarbageRejected) {
  std::vector<std::uint8_t> junk{1, 2};
  EXPECT_FALSE(ControlMessage::Parse(junk).has_value());
  std::vector<std::uint8_t> truncated{1, 0, 0, 0, 9, 1, 2, 3};
  EXPECT_FALSE(ControlMessage::Parse(truncated).has_value());
}

class ControlPlaneTest : public ::testing::Test {
 public:
  ControlPlaneTest()
      : engine_(f_.AddP4Engine(CowbirdP4Engine::Config{})),
        server_(engine_, f_.sw()),
        rpc_(f_.client(0).nic) {
    const core::RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    client_ = &f_.AddClient(0, testing::SmallRings(1));
    client_->RegisterRegion(pool);
    rdma::Device* const memories[] = {&*f_.memory(0).dev};
    conn_ = ConnectP4Engine(*f_.client(0).dev, memories, 0x800);
    engine_.Start();
  }

  // One read through the full stack; returns true if it completed.
  sim::Task<bool> TryRead(sim::SimThread& thread, Nanos timeout) {
    auto& ctx = client_->thread(0);
    auto id = co_await ctx.AsyncRead(thread, kRegion, 0x2000, kHeap, 64);
    if (!id.has_value()) co_return false;
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    const Nanos deadline = f_.sim.Now() + timeout;
    while (f_.sim.Now() < deadline) {
      auto done = co_await ctx.PollWait(thread, poll, 1, Micros(50));
      if (!done.empty()) co_return true;
    }
    co_return false;
  }

  workload::Cluster f_{workload::ClusterSpec{}};
  CowbirdP4Engine& engine_;
  ControlPlaneServer server_;
  ControlPlaneClient rpc_;
  CowbirdClient* client_ = nullptr;
  P4Connection conn_;
};

TEST_F(ControlPlaneTest, SetupOverTheWireThenServe) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  bool setup_ok = false;
  bool read_ok = false;
  f_.sim.Spawn([](ControlPlaneTest& t, sim::SimThread& thr, bool& s_ok,
                  bool& r_ok) -> sim::Task<void> {
    s_ok = co_await t.rpc_.Setup(t.client_->descriptor(), t.conn_);
    r_ok = co_await t.TryRead(thr, Millis(2));
    t.f_.sim.Halt();
  }(*this, thread, setup_ok, read_ok));
  f_.sim.Run();
  EXPECT_TRUE(setup_ok);
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(server_.setups(), 1u);
}

TEST_F(ControlPlaneTest, TeardownStopsService) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  bool before = false, teardown_ok = false, after = true;
  f_.sim.Spawn([](ControlPlaneTest& t, sim::SimThread& thr, bool& b,
                  bool& td, bool& a) -> sim::Task<void> {
    (void)co_await t.rpc_.Setup(t.client_->descriptor(), t.conn_);
    b = co_await t.TryRead(thr, Millis(2));
    td = co_await t.rpc_.Teardown(t.client_->descriptor().instance_id);
    a = co_await t.TryRead(thr, Millis(1));
    t.f_.sim.Halt();
  }(*this, thread, before, teardown_ok, after));
  f_.sim.Run();
  EXPECT_TRUE(before);
  EXPECT_TRUE(teardown_ok);
  EXPECT_FALSE(after);  // nothing probes the rings anymore
  EXPECT_EQ(server_.teardowns(), 1u);
}

TEST_F(ControlPlaneTest, TeardownOfUnknownInstanceFails) {
  bool ok = true;
  f_.sim.Spawn([](ControlPlaneTest& t, bool& out) -> sim::Task<void> {
    out = co_await t.rpc_.Teardown(4242);
    t.f_.sim.Halt();
  }(*this, ok));
  f_.sim.Run();
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace cowbird::p4
