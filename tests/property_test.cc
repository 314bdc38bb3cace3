// Property-based tests over the paper's invariants, parameterized across
// engines, transfer sizes, and fault rates (TEST_P sweeps).
//
// The central property (Section 4.1/5.3): Cowbird provides per-type
// linearizability with read-after-write consistency — a read issued after a
// write to an overlapping range returns that write's data (never older,
// never torn), and a read issued *before* a write never observes it.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <tuple>

#include "common/ring.h"
#include "common/rng.h"
#include "core/client.h"
#include "fabric_fixture.h"
#include "p4/engine.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "test_seed.h"

namespace cowbird {
namespace {

using core::CowbirdClient;
using core::ReqId;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;
constexpr net::NodeId kSwitchId = 100;

enum class Engine { kSpot, kP4 };

const char* EngineName(Engine e) {
  return e == Engine::kSpot ? "spot" : "p4";
}

// Harness that can run either engine behind the same client.
struct EngineHarness {
  EngineHarness(Engine engine, double loss_rate, std::uint64_t seed) {
    const core::RegionInfo pool =
        testing::PoolRegion(fabric, kPoolBase, MiB(64));
    CowbirdClient::Config cc;
    cc.layout.base = 0x10000;
    cc.layout.threads = 2;
    cc.layout.meta_slots = 128;
    cc.layout.data_capacity = KiB(128);
    cc.layout.resp_capacity = KiB(128);
    client = &fabric.AddClient(0, cc);
    client->RegisterRegion(pool);
    if (engine == Engine::kSpot) {
      spot::SpotAgent& agent =
          fabric.AddSpotAgent(spot::SpotAgent::Config{});
      fabric.AttachSpot(agent, *client);
      agent.Start();
    } else {
      p4::CowbirdP4Engine::Config ec;
      ec.switch_node_id = kSwitchId;
      fabric.AddP4Engine(ec);
      fabric.AttachP4(*client, 0x800);
      fabric.p4().Start();
    }
    if (loss_rate > 0) {
      loss_rng = std::make_unique<Rng>(seed * 31 + 7);
      auto filter = [this, loss_rate](const net::Packet& p) {
        return rdma::LooksLikeRdma(p) && loss_rng->Bernoulli(loss_rate);
      };
      fabric.sw().EgressLink(fabric.client(0).nic.switch_port())
          .set_drop_filter(filter);
      fabric.sw().EgressLink(fabric.memory(0).nic.switch_port())
          .set_drop_filter(filter);
      fabric.sw().EgressLink(fabric.spot().nic.switch_port())
          .set_drop_filter(filter);
    }
  }

  workload::Cluster fabric{workload::ClusterSpec{}};
  CowbirdClient* client = nullptr;
  std::unique_ptr<Rng> loss_rng;
};

// ---------------------------------------------------------------------------
// Linearizability histories
// ---------------------------------------------------------------------------

struct LinearizabilityParam {
  Engine engine;
  double loss_rate;
  int slots;          // distinct addresses (small → frequent RAW conflicts)
  std::uint32_t len;  // record length
};

class LinearizabilityTest
    : public ::testing::TestWithParam<LinearizabilityParam> {};

// Random mixed read/write history against a few hot slots; every completed
// read must equal the last write *issued before it* to that slot (version
// stamp embedded in the payload). Writes and reads interleave freely with
// up to 8 in flight.
TEST_P(LinearizabilityTest, ReadsObserveLatestPrecedingWrite) {
  const LinearizabilityParam param = GetParam();
  const std::uint64_t seed = cowbird::testing::TestSeed(99);
  COWBIRD_SCOPED_SEED(seed);
  EngineHarness h(param.engine, param.loss_rate, seed);

  struct SlotState {
    std::uint64_t version = 0;  // version of the last *issued* write
  };
  std::vector<SlotState> slots(param.slots);
  std::uint64_t violations = 0;
  std::uint64_t reads_checked = 0;

  h.fabric.sim.Spawn([](EngineHarness& eh, const LinearizabilityParam& p,
                        std::uint64_t wl_seed,
                        std::vector<SlotState>& state,
                        std::uint64_t& bad,
                        std::uint64_t& checked) -> sim::Task<void> {
    sim::SimThread thread(*eh.fabric.client(0).machine, "app");
    auto& ctx = eh.client->thread(0);
    const core::PollId poll = ctx.PollCreate();
    Rng rng(wl_seed);

    struct PendingRead {
      ReqId id;
      int slot;
      std::uint64_t min_version;  // version at issue time
      std::uint64_t dest;
    };
    std::deque<PendingRead> pending;
    int writes_outstanding = 0;
    int dest_rr = 0;

    auto make_payload = [&p](int slot, std::uint64_t version,
                             std::vector<std::uint8_t>& out) {
      out.assign(p.len, static_cast<std::uint8_t>(version * 37 + slot));
      for (int b = 0; b < 8; ++b) {
        out[b] = static_cast<std::uint8_t>(version >> (8 * b));
      }
    };

    for (int i = 0; i < 400; ++i) {
      const int slot = static_cast<int>(rng.Below(state.size()));
      const std::uint64_t offset = static_cast<std::uint64_t>(slot) * 4096;
      if (rng.Bernoulli(0.4)) {
        // Write a new version.
        const std::uint64_t version = state[slot].version + 1;
        std::vector<std::uint8_t> payload;
        make_payload(slot, version, payload);
        eh.fabric.client(0).mem.Write(kHeap, payload);
        auto id = co_await ctx.AsyncWrite(thread, kRegion, kHeap, offset,
                                          p.len);
        if (!id.has_value()) {
          --i;
          co_await thread.Idle(Micros(10));
          continue;
        }
        state[slot].version = version;  // issued
        ctx.PollAdd(poll, *id);
        ++writes_outstanding;
      } else {
        const std::uint64_t dest =
            kHeap + 0x100000 + (dest_rr++ % 64) * 4096;
        auto id = co_await ctx.AsyncRead(thread, kRegion, offset, dest,
                                         p.len);
        if (!id.has_value()) {
          --i;
          co_await thread.Idle(Micros(10));
          continue;
        }
        pending.push_back(
            PendingRead{*id, slot, state[slot].version, dest});
      }

      // Harvest: reads complete in issue order (per-type FIFO).
      for (;;) {
        auto done = co_await ctx.PollWait(thread, poll, 16, 0);
        // Check read completions through the per-thread retire counter.
        while (!pending.empty() &&
               ctx.reads_retired() >= pending.front().id.seq()) {
          const PendingRead& r = pending.front();
          const auto version =
              eh.fabric.client(0).mem.ReadValue<std::uint64_t>(r.dest);
          ++checked;
          // Must be at least the version issued before the read, and not
          // beyond the latest issued (no time travel either way). Torn data
          // would produce an impossible version or mismatched filler.
          if (version < r.min_version || version > state[r.slot].version) {
            ++bad;
          } else if (version > 0) {
            bool filler_ok = true;
            for (std::uint32_t b = 8; b < p.len; ++b) {
              const auto expect = static_cast<std::uint8_t>(
                  version * 37 + static_cast<std::uint64_t>(r.slot));
              if (eh.fabric.client(0).mem.ReadValue<std::uint8_t>(r.dest + b) !=
                  expect) {
                filler_ok = false;
                break;
              }
            }
            if (!filler_ok) ++bad;  // torn read
          }
          pending.pop_front();
        }
        writes_outstanding = static_cast<int>(ctx.writes_issued() -
                                              ctx.writes_retired());
        if (pending.size() + writes_outstanding < 8) break;
        if (done.empty()) co_await thread.Idle(Micros(5));
      }
    }
    // Drain.
    const Nanos deadline = eh.fabric.sim.Now() + Millis(50);
    while (!pending.empty() && eh.fabric.sim.Now() < deadline) {
      (void)co_await ctx.PollWait(thread, poll, 16, Micros(50));
      while (!pending.empty() &&
             ctx.reads_retired() >= pending.front().id.seq()) {
        const PendingRead& r = pending.front();
        const auto version =
            eh.fabric.client(0).mem.ReadValue<std::uint64_t>(r.dest);
        ++checked;
        if (version < r.min_version || version > state[r.slot].version) {
          ++bad;
        }
        pending.pop_front();
      }
    }
    EXPECT_TRUE(pending.empty()) << "reads never completed";
    eh.fabric.sim.Halt();
  }(h, param, seed * 31 + 4242, slots, violations, reads_checked));

  h.fabric.sim.Run();
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(reads_checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndFaults, LinearizabilityTest,
    ::testing::Values(
        LinearizabilityParam{Engine::kSpot, 0.0, 4, 128},
        LinearizabilityParam{Engine::kSpot, 0.0, 1, 512},
        LinearizabilityParam{Engine::kSpot, 0.01, 4, 128},
        LinearizabilityParam{Engine::kP4, 0.0, 4, 128},
        LinearizabilityParam{Engine::kP4, 0.0, 1, 512},
        LinearizabilityParam{Engine::kP4, 0.01, 4, 128}),
    [](const ::testing::TestParamInfo<LinearizabilityParam>& param_info) {
      return std::string(EngineName(param_info.param.engine)) + "_loss" +
             std::to_string(
                 static_cast<int>(param_info.param.loss_rate * 100)) +
             "_slots" + std::to_string(param_info.param.slots) + "_len" +
             std::to_string(param_info.param.len);
    });

// ---------------------------------------------------------------------------
// Transfer-size sweep: every size round-trips intact through both engines.
// ---------------------------------------------------------------------------

class TransferSizeTest
    : public ::testing::TestWithParam<std::tuple<Engine, std::uint32_t>> {};

TEST_P(TransferSizeTest, WriteThenReadRoundTrips) {
  const Engine engine = std::get<0>(GetParam());
  const std::uint32_t len = std::get<1>(GetParam());
  EngineHarness h(engine, 0.0, 1);

  Rng rng(len);
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  h.fabric.client(0).mem.Write(kHeap, data);

  bool ok = false;
  h.fabric.sim.Spawn([](EngineHarness& eh, std::uint32_t n,
                        bool& out) -> sim::Task<void> {
    sim::SimThread thread(*eh.fabric.client(0).machine, "app");
    auto& ctx = eh.client->thread(0);
    const core::PollId poll = ctx.PollCreate();
    auto w = co_await ctx.AsyncWrite(thread, kRegion, kHeap, 0x5000, n);
    EXPECT_TRUE(w.has_value());
    ctx.PollAdd(poll, *w);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(5))).empty()) {
    }
    auto r = co_await ctx.AsyncRead(thread, kRegion, 0x5000,
                                    kHeap + 0x100000, n);
    EXPECT_TRUE(r.has_value());
    ctx.PollAdd(poll, *r);
    while ((co_await ctx.PollWait(thread, poll, 1, Millis(5))).empty()) {
    }
    out = true;
    eh.fabric.sim.Halt();
  }(h, len, ok));
  h.fabric.sim.Run();
  ASSERT_TRUE(ok);

  std::vector<std::uint8_t> out(len);
  h.fabric.client(0).mem.Read(kHeap + 0x100000, out);
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TransferSizeTest,
    ::testing::Combine(::testing::Values(Engine::kSpot, Engine::kP4),
                       ::testing::Values(1u, 8u, 100u, 1023u, 1024u, 1025u,
                                         2048u, 5000u, 16384u)),
    [](const ::testing::TestParamInfo<std::tuple<Engine, std::uint32_t>>&
           param_info) {
      return std::string(EngineName(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "B";
    });

// ---------------------------------------------------------------------------
// Ring invariants under random operation sequences.
// ---------------------------------------------------------------------------

class RingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingPropertyTest, CursorInvariantsHoldUnderRandomOps) {
  const std::uint64_t seed = cowbird::testing::TestSeed(GetParam());
  COWBIRD_SCOPED_SEED(seed);
  Rng rng(seed);
  const std::uint64_t capacity = rng.Between(1, 64);
  RingCursors ring(capacity);
  std::uint64_t pushes = 0, pops = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!ring.Full() && (ring.Empty() || rng.Bernoulli(0.55))) {
      const auto cursor = ring.Push();
      EXPECT_EQ(cursor, pushes);
      ++pushes;
    } else if (!ring.Empty()) {
      const auto cursor = ring.Pop();
      EXPECT_EQ(cursor, pops);
      ++pops;
    }
    EXPECT_LE(ring.Size(), capacity);
    EXPECT_EQ(ring.Size(), pushes - pops);
    EXPECT_EQ(ring.Free() + ring.Size(), capacity);
  }
}

TEST_P(RingPropertyTest, ByteRingSplitSpansCoverReservation) {
  const std::uint64_t seed = cowbird::testing::TestSeed(GetParam());
  COWBIRD_SCOPED_SEED(seed);
  Rng rng(seed * 31 + 5);
  const std::uint64_t capacity = rng.Between(64, 4096);
  ByteRing ring(capacity);
  std::deque<std::uint64_t> live;  // reservation lengths, FIFO
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t len = rng.Between(1, capacity / 2);
    if (ring.CanReserve(len) && rng.Bernoulli(0.6)) {
      const auto at = ring.Reserve(len);
      const auto split = ring.SplitSpan(at, len);
      EXPECT_EQ(split.first.len + split.second.len, len);
      EXPECT_LT(split.first.offset, capacity);
      EXPECT_LE(split.first.offset + split.first.len, capacity);
      if (split.second.len > 0) {
        EXPECT_EQ(split.second.offset, 0u);
        EXPECT_EQ(split.first.offset + split.first.len, capacity);
      }
      live.push_back(len);
    } else if (!live.empty()) {
      ring.Release(live.front());
      live.pop_front();
    }
    std::uint64_t total = 0;
    for (auto l : live) total += l;
    EXPECT_EQ(ring.Used(), total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace cowbird
