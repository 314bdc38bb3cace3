// Tests for the convenience API (implicit notification groups, select
// semantics).
#include <gtest/gtest.h>

#include "core/convenience.h"
#include "fabric_fixture.h"
#include "spot/agent.h"

namespace cowbird::core {
namespace {

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;

// ---------------------------------------------------------------------------
// ImplicitGroup / select semantics
// ---------------------------------------------------------------------------

class ConvenienceTest : public testing::ClusterTest {
 public:
  ConvenienceTest() {
    const RegionInfo pool = testing::PoolRegion(f_, kPoolBase, MiB(16));
    client_ = &f_.AddClient(0, testing::SmallRings(1));
    client_->RegisterRegion(pool);
    spot::SpotAgent& agent = f_.AddSpotAgent(spot::SpotAgent::Config{});
    f_.Attach(agent, *client_);
    agent.Start();
  }
};

TEST_F(ConvenienceTest, SelectReturnsCompletionsOneByOne) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  int selected = 0;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  int& count) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    for (int i = 0; i < 5; ++i) {
      auto id = co_await group.Read(thr, 1, i * 256, kHeap + i * 256, 64);
      EXPECT_TRUE(id.has_value());
    }
    EXPECT_EQ(group.outstanding(), 5);
    while (count < 5) {
      auto done = co_await group.Select(thr, Millis(5));
      if (done.has_value()) ++count;
    }
    EXPECT_EQ(group.outstanding(), 0);
    t.f_.sim.Halt();
  }(*this, thread, selected));
  f_.sim.Run();
  EXPECT_EQ(selected, 5);
}

TEST_F(ConvenienceTest, SelectTimesOutWhenNothingPending) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  bool timed_out = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    const Nanos before = t.f_.sim.Now();
    auto done = co_await group.Select(thr, Micros(50));
    out = !done.has_value() && t.f_.sim.Now() >= before + Micros(50);
    t.f_.sim.Halt();
  }(*this, thread, timed_out));
  f_.sim.Run();
  EXPECT_TRUE(timed_out);
}

TEST_F(ConvenienceTest, WaitForSpecificRequestSkipsOthers) {
  sim::SimThread thread(*f_.client(0).machine, "app");
  bool ok = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    (void)co_await group.Read(thr, 1, 0, kHeap, 64);
    (void)co_await group.Read(thr, 1, 256, kHeap + 256, 64);
    auto last = co_await group.Read(thr, 1, 512, kHeap + 512, 64);
    EXPECT_TRUE(last.has_value());
    // Waiting for the LAST request implies the first two were harvested
    // along the way (per-type FIFO completion).
    out = co_await group.WaitFor(thr, *last, Millis(5));
    t.f_.sim.Halt();
  }(*this, thread, ok));
  f_.sim.Run();
  EXPECT_TRUE(ok);
}

TEST_F(ConvenienceTest, ReadSyncMovesRealBytes) {
  const auto data = testing::Pattern(200, 5);
  f_.memory(0).mem.Write(kPoolBase + 0x3000, data);

  sim::SimThread thread(*f_.client(0).machine, "app");
  bool ok = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    out = co_await group.ReadSync(thr, 1, 0x3000, kHeap, 200);
    t.f_.sim.Halt();
  }(*this, thread, ok));
  f_.sim.Run();
  ASSERT_TRUE(ok);
  std::vector<std::uint8_t> out(200);
  f_.client(0).mem.Read(kHeap, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace cowbird::core
