// Per-stage latency accounting: in a loss-free run, the telemetry op
// breakdown must tile the client-observed latency of every operation
// exactly — issue..retired equals the sum of the four recorded segments,
// and equals the wall (virtual) time between AsyncRead/AsyncWrite entry
// and PollWait success. Checked against both engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "p4/engine.h"
#include "spot/agent.h"
#include "telemetry/hub.h"

namespace cowbird::telemetry {
namespace {

using core::CowbirdClient;
using core::RegionInfo;
using core::ReqId;
using testing::Pattern;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

// Issue timestamp and observed completion timestamp of one op.
struct OpTiming {
  std::optional<ReqId> id;
  Nanos issued = 0;
  Nanos completed = 0;
};

// Base harness: testbed + instrumented client; engine added by subclasses.
class BreakdownTestBase : public ::testing::Test {
 public:
  BreakdownTestBase() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(64));
    client_ = &f_.AddClient(0, testing::SmallRings(1));
    client_->RegisterRegion(pool);
    app_thread_ =
        std::make_unique<sim::SimThread>(*f_.client(0).machine, "app");
  }

  // One op at a time: issue, poll to completion, record both endpoints.
  sim::Task<void> RunOp(bool is_write, std::uint64_t offset,
                        std::uint32_t len, OpTiming& out) {
    auto& ctx = client_->thread(0);
    out.issued = f_.sim.Now();  // AsyncRead/Write stamp kIssue at entry
    if (is_write) {
      out.id = co_await ctx.AsyncWrite(*app_thread_, kRegion, kHeap, offset,
                                       len);
    } else {
      out.id = co_await ctx.AsyncRead(*app_thread_, kRegion, offset, kHeap,
                                      len);
    }
    EXPECT_TRUE(out.id.has_value());  // rings are empty: first try succeeds
    if (!out.id.has_value()) co_return;
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *out.id);
    while ((co_await ctx.PollWait(*app_thread_, poll, 1, Millis(5))).empty()) {
    }
    out.completed = f_.sim.Now();
  }

  // The breakdown for `timing`'s op must be complete, self-consistent, and
  // must account for the whole client-observed latency to the nanosecond.
  void CheckExactBreakdown(const OpTiming& timing, bool is_write,
                           std::uint64_t seq) {
    const OpKey key{client_->descriptor().instance_id, 0, is_write, seq};
    const OpBreakdown* op = hub_.tracer.FindOp(key);
    ASSERT_NE(op, nullptr) << key.ToString();
    ASSERT_TRUE(op->Complete()) << key.ToString();
    for (int p = 1; p < kNumOpPhases; ++p) {
      EXPECT_GE(op->at[p], op->at[p - 1]) << "phase " << p << " regressed";
    }
    EXPECT_EQ(op->PhaseAt(OpPhase::kIssue), timing.issued);
    EXPECT_EQ(op->PhaseAt(OpPhase::kRetired), timing.completed);
    EXPECT_EQ(op->Total(), timing.completed - timing.issued);
    EXPECT_EQ(op->SumOfSegments(), op->Total());
    EXPECT_GT(op->Total(), 0);
  }

  void CheckTraceExports() {
    std::string error;
    EXPECT_TRUE(ValidateChromeTrace(hub_.tracer.ToChromeTraceJson(), &error))
        << error;
  }

  Hub hub_{[] { return Nanos{0}; }};  // re-seated by the cluster
  workload::Cluster f_{workload::ClusterSpec{}, &hub_};
  CowbirdClient* client_ = nullptr;
  std::unique_ptr<sim::SimThread> app_thread_;
};

class SpotBreakdownTest : public BreakdownTestBase {
 public:
  SpotBreakdownTest() {
    spot::SpotAgent& agent = f_.AddSpotAgent(spot::SpotAgent::Config{});
    f_.Attach(agent, *client_);
    agent.Start();
  }
};

class P4BreakdownTest : public BreakdownTestBase {
 public:
  P4BreakdownTest() {
    p4::CowbirdP4Engine& engine =
        f_.AddP4Engine(p4::CowbirdP4Engine::Config{});
    f_.Attach(engine, *client_);
    engine.Start();
  }
};

TEST_F(SpotBreakdownTest, ReadLatencyEqualsSumOfSegments) {
  f_.memory(0).mem.Write(kPoolBase + 0x2000, Pattern(256, 1));
  OpTiming read;
  f_.sim.Spawn([](SpotBreakdownTest& t, OpTiming& out) -> sim::Task<void> {
    co_await t.RunOp(/*is_write=*/false, 0x2000, 256, out);
    t.f_.sim.Halt();
  }(*this, read));
  f_.sim.Run();
  CheckExactBreakdown(read, /*is_write=*/false, /*seq=*/1);
  CheckTraceExports();
}

TEST_F(SpotBreakdownTest, WriteLatencyEqualsSumOfSegments) {
  f_.client(0).mem.Write(kHeap, Pattern(512, 2));
  OpTiming write;
  f_.sim.Spawn([](SpotBreakdownTest& t, OpTiming& out) -> sim::Task<void> {
    co_await t.RunOp(/*is_write=*/true, 0x8000, 512, out);
    t.f_.sim.Halt();
  }(*this, write));
  f_.sim.Run();
  CheckExactBreakdown(write, /*is_write=*/true, /*seq=*/1);
}

TEST_F(SpotBreakdownTest, BackToBackOpsEachTileExactly) {
  f_.memory(0).mem.Write(kPoolBase + 0x2000, Pattern(256, 3));
  f_.client(0).mem.Write(kHeap, Pattern(256, 4));
  OpTiming r1, w1, r2;
  f_.sim.Spawn([](SpotBreakdownTest& t, OpTiming& a, OpTiming& b,
                  OpTiming& c) -> sim::Task<void> {
    co_await t.RunOp(false, 0x2000, 256, a);
    co_await t.RunOp(true, 0x8000, 256, b);
    co_await t.RunOp(false, 0x8000, 256, c);
    t.f_.sim.Halt();
  }(*this, r1, w1, r2));
  f_.sim.Run();
  CheckExactBreakdown(r1, false, 1);
  CheckExactBreakdown(w1, true, 1);
  CheckExactBreakdown(r2, false, 2);
  // The engine-side counters surfaced through the registry agree.
  const Snapshot snap = hub_.metrics.TakeSnapshot();
  const std::string labels = "{agent=0,engine=spot,node=3}";
  EXPECT_EQ(snap.GaugeValue("engine_ops_completed" + labels), 3);
}

TEST_F(P4BreakdownTest, ReadLatencyEqualsSumOfSegments) {
  f_.memory(0).mem.Write(kPoolBase + 0x2000, Pattern(256, 5));
  OpTiming read;
  f_.sim.Spawn([](P4BreakdownTest& t, OpTiming& out) -> sim::Task<void> {
    co_await t.RunOp(/*is_write=*/false, 0x2000, 256, out);
    t.f_.sim.Halt();
  }(*this, read));
  f_.sim.Run();
  CheckExactBreakdown(read, /*is_write=*/false, /*seq=*/1);
  CheckTraceExports();
}

TEST_F(P4BreakdownTest, WriteLatencyEqualsSumOfSegments) {
  f_.client(0).mem.Write(kHeap, Pattern(512, 6));
  OpTiming write;
  f_.sim.Spawn([](P4BreakdownTest& t, OpTiming& out) -> sim::Task<void> {
    co_await t.RunOp(/*is_write=*/true, 0x8000, 512, out);
    t.f_.sim.Halt();
  }(*this, write));
  f_.sim.Run();
  CheckExactBreakdown(write, /*is_write=*/true, /*seq=*/1);
  // In the RMT pipeline parse and execute coincide: that segment is 0 and
  // the engine_queue segment absorbs none of the latency.
  const OpKey key{client_->descriptor().instance_id, 0, true, 1};
  const OpBreakdown* op = hub_.tracer.FindOp(key);
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->Segment(1), 0);
}

// Two agents share the spot host (the migration standby layout): each keeps
// its own engine series, so the one serving the client reports its work
// and destroying either leaves the other's series registered.
TEST(SpotAgentTelemetry, TwoAgentsOnOneHostKeepSeparateSeries) {
  Hub hub([] { return Nanos{0}; });
  workload::Cluster f{workload::ClusterSpec{}, &hub};
  const RegionInfo pool = testing::PoolRegion(f, kPoolBase, MiB(16));
  CowbirdClient& client = f.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(pool);
  spot::SpotAgent& serving = f.AddSpotAgent(spot::SpotAgent::Config{});
  spot::SpotAgent& standby = f.AddSpotAgent(spot::SpotAgent::Config{});
  f.Attach(serving, client);
  serving.Start();
  standby.Start();

  sim::SimThread thread(*f.client(0).machine, "app");
  f.sim.Spawn([](workload::Cluster& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await testing::ReadAndWait(ff, cl, 0, thr, i * 64, 64, kHeap);
    }
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();
  ASSERT_EQ(serving.ops_completed(), 100u);

  std::int64_t spot_ops = 0;
  for (const auto& entry : f.TakeSnapshot().gauges) {
    if (entry.key.starts_with("engine_ops_completed{") &&
        entry.key.find("engine=spot") != std::string::npos) {
      spot_ops += entry.value;
    }
  }
  EXPECT_EQ(spot_ops, 100);
}

}  // namespace
}  // namespace cowbird::telemetry
