// Unit tests for the client library data structures (no offload engine;
// engine behaviour is emulated by writing the red block directly, exactly
// the memory-level interface an engine uses).
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/layout.h"
#include "core/request.h"
#include "fabric_fixture.h"

namespace cowbird::core {
namespace {

TEST(Layout, RegionsDoNotOverlap) {
  InstanceLayout layout;
  layout.base = 0x1000;
  layout.threads = 4;
  layout.meta_slots = 128;
  layout.data_capacity = 4096;
  layout.resp_capacity = 8192;

  EXPECT_EQ(layout.GreenAddr(0), 0x1000u);
  EXPECT_EQ(layout.GreenAddr(3) + kGreenBlockBytes, layout.RedBase());
  EXPECT_EQ(layout.RedAddr(3) + kRedBlockBytes, layout.RingsBase());
  // Per-thread rings tile without gaps.
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(layout.RespRingAddr(t) + layout.resp_capacity,
              layout.MetaRingAddr(t + 1));
  }
  EXPECT_EQ(layout.MetaRingAddr(3) + layout.PerThreadRingBytes(),
            layout.base + layout.TotalBytes());
}

TEST(Layout, MetaSlotAddrWraps) {
  InstanceLayout layout;
  layout.base = 0;
  layout.threads = 1;
  layout.meta_slots = 8;
  EXPECT_EQ(layout.MetaSlotAddr(0, 0), layout.MetaRingAddr(0));
  EXPECT_EQ(layout.MetaSlotAddr(0, 8), layout.MetaRingAddr(0));
  EXPECT_EQ(layout.MetaSlotAddr(0, 9),
            layout.MetaRingAddr(0) + kMetadataEntryBytes);
}

TEST(RequestMetadata, PublishParseRoundTrip) {
  SparseMemory mem;
  RequestMetadata m;
  m.rw_type = RwType::kWrite;
  m.region_id = 7;
  m.length = 4096;
  m.req_addr = 0xAABBCCDD0011ull;
  m.resp_addr = 0x1122334455667788ull;
  m.Publish(mem, 0x500);
  std::vector<std::uint8_t> raw(kMetadataEntryBytes);
  mem.Read(0x500, raw);
  const RequestMetadata parsed = RequestMetadata::ParseBytes(raw);
  EXPECT_EQ(parsed.rw_type, RwType::kWrite);
  EXPECT_EQ(parsed.region_id, 7);
  EXPECT_EQ(parsed.length, 4096u);
  EXPECT_EQ(parsed.req_addr, m.req_addr);
  EXPECT_EQ(parsed.resp_addr, m.resp_addr);
}

TEST(RequestMetadata, UnwrittenEntryParsesInvalid) {
  SparseMemory mem;
  std::vector<std::uint8_t> raw(kMetadataEntryBytes);
  mem.Read(0x900, raw);
  EXPECT_EQ(RequestMetadata::ParseBytes(raw).rw_type, RwType::kInvalid);
}

TEST(ReqIdTest, EncodesAllFields) {
  const ReqId r = ReqId::Make(RwType::kRead, 5, 123456);
  EXPECT_EQ(r.type(), RwType::kRead);
  EXPECT_EQ(r.thread(), 5);
  EXPECT_EQ(r.seq(), 123456u);
  const ReqId w = ReqId::Make(RwType::kWrite, 32767, (1ull << 48) - 1);
  EXPECT_EQ(w.type(), RwType::kWrite);
  EXPECT_EQ(w.thread(), 32767);
  EXPECT_EQ(w.seq(), (1ull << 48) - 1);
  EXPECT_TRUE(w.valid());
  EXPECT_FALSE(ReqId().valid());
}

class ClientTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBufBase = 0x10000;
  static constexpr std::uint64_t kHeap = 0x4000000;  // app heap
  static constexpr std::uint16_t kRegion = 1;

  ClientTest() {
    CowbirdClient::Config config;
    config.layout.base = kBufBase;
    config.layout.threads = 2;
    config.layout.meta_slots = 8;
    config.layout.data_capacity = 4096;
    config.layout.resp_capacity = 4096;
    client_ = &f_.AddClient(0, config);
    client_->RegisterRegion(RegionInfo{kRegion, testing::kMemoryId,
                                       0x100000, 0xAB, MiB(64)});
    thread_ = std::make_unique<sim::SimThread>(*f_.client(0).machine, "app");
  }

  // Emulates the offload engine publishing progress: writes the red block
  // for `t` directly into compute memory.
  void WriteRed(int t, std::uint64_t meta_head, std::uint64_t write_prog,
                std::uint64_t read_prog) {
    const auto& layout = client_->descriptor().layout;
    auto& mem = f_.client(0).mem;
    mem.WriteValue<std::uint64_t>(layout.RedAddr(t), meta_head);
    mem.WriteValue<std::uint64_t>(layout.RedAddr(t) + 24, write_prog);
    mem.WriteValue<std::uint64_t>(layout.RedAddr(t) + 32, read_prog);
  }

  // Runs a client coroutine to completion.
  template <typename Fn>
  void RunClient(Fn&& fn) {
    f_.sim.Spawn(fn());
    f_.sim.Run();
  }

  workload::Cluster f_{workload::ClusterSpec{}};
  CowbirdClient* client_ = nullptr;
  std::unique_ptr<sim::SimThread> thread_;
};

TEST_F(ClientTest, AsyncReadPublishesMetadataAndTail) {
  std::optional<ReqId> id;
  RunClient([&]() -> sim::Task<void> {
    id = co_await client_->thread(0).AsyncRead(*thread_, kRegion, 0x2000,
                                               kHeap, 256);
  });
  EXPECT_TRUE(id.has_value());
  EXPECT_EQ(id->type(), RwType::kRead);
  EXPECT_EQ(id->thread(), 0);
  EXPECT_EQ(id->seq(), 1u);

  const auto& layout = client_->descriptor().layout;
  // Green tail advanced to 1.
  EXPECT_EQ(f_.client(0).mem.ReadValue<std::uint64_t>(layout.GreenAddr(0)), 1u);
  // Thread 1's green block untouched.
  EXPECT_EQ(f_.client(0).mem.ReadValue<std::uint64_t>(layout.GreenAddr(1)), 0u);
  // The published entry matches Table 3.
  std::vector<std::uint8_t> raw(kMetadataEntryBytes);
  f_.client(0).mem.Read(layout.MetaSlotAddr(0, 0), raw);
  const auto meta = RequestMetadata::ParseBytes(raw);
  EXPECT_EQ(meta.rw_type, RwType::kRead);
  EXPECT_EQ(meta.region_id, kRegion);
  EXPECT_EQ(meta.length, 256u);
  EXPECT_EQ(meta.req_addr, 0x100000u + 0x2000u);  // absolute pool address
  EXPECT_EQ(meta.resp_addr, layout.RespRingAddr(0));
}

TEST_F(ClientTest, AsyncWriteStagesPayload) {
  std::vector<std::uint8_t> payload(100, 0x5A);
  f_.client(0).mem.Write(kHeap, payload);
  std::optional<ReqId> id;
  RunClient([&]() -> sim::Task<void> {
    id = co_await client_->thread(0).AsyncWrite(*thread_, kRegion, kHeap,
                                                0x3000, 100);
  });
  EXPECT_TRUE(id.has_value());
  EXPECT_EQ(id->type(), RwType::kWrite);

  const auto& layout = client_->descriptor().layout;
  // Payload copied into the request data ring.
  std::vector<std::uint8_t> staged(100);
  f_.client(0).mem.Read(layout.DataRingAddr(0), staged);
  EXPECT_EQ(staged, payload);
  // Green data tail advanced.
  EXPECT_EQ(f_.client(0).mem.ReadValue<std::uint64_t>(layout.GreenAddr(0) + 8),
            100u);
  std::vector<std::uint8_t> raw(kMetadataEntryBytes);
  f_.client(0).mem.Read(layout.MetaSlotAddr(0, 0), raw);
  const auto meta = RequestMetadata::ParseBytes(raw);
  EXPECT_EQ(meta.req_addr, layout.DataRingAddr(0));
  EXPECT_EQ(meta.resp_addr, 0x100000u + 0x3000u);
}

TEST_F(ClientTest, MetaRingFullFailsUntilEngineAdvances) {
  RunClient([&]() -> sim::Task<void> {
    auto& ctx = client_->thread(0);
    for (int i = 0; i < 8; ++i) {
      auto id = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap, 8);
      EXPECT_TRUE(id.has_value());
    }
    // 9th: metadata ring (8 slots) is full.
    auto id = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap, 8);
    EXPECT_FALSE(id.has_value());
    EXPECT_EQ(ctx.issue_failures(), 1u);
    // Engine consumes 4 entries and completes those reads.
    WriteRed(0, 4, 0, 4);
    id = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap, 8);
    EXPECT_TRUE(id.has_value());
  });
}

TEST_F(ClientTest, PollWaitReturnsCompletionsAndCopiesData) {
  const auto& layout = client_->descriptor().layout;
  std::vector<ReqId> done;
  RunClient([&]() -> sim::Task<void> {
    auto& ctx = client_->thread(0);
    auto id = co_await ctx.AsyncRead(*thread_, kRegion, 0x2000, kHeap, 64);
    EXPECT_TRUE(id.has_value());
    const PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    // Nothing complete yet.
    auto none = co_await ctx.PollWait(*thread_, poll, 1, /*timeout=*/1000);
    EXPECT_TRUE(none.empty());
    // Engine delivers the payload into the response ring, then publishes.
    std::vector<std::uint8_t> payload(64, 0xCD);
    f_.client(0).mem.Write(layout.RespRingAddr(0), payload);
    WriteRed(0, 1, 0, 1);
    done = co_await ctx.PollWait(*thread_, poll, 1, Micros(100));
  });
  EXPECT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq(), 1u);
  std::vector<std::uint8_t> out(64);
  f_.client(0).mem.Read(kHeap, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(64, 0xCD));
}

TEST_F(ClientTest, PollWaitTimeoutZeroIsSingleCheck) {
  RunClient([&]() -> sim::Task<void> {
    auto& ctx = client_->thread(0);
    const PollId poll = ctx.PollCreate();
    const Nanos before = f_.sim.Now();
    auto none = co_await ctx.PollWait(*thread_, poll, 4, 0);
    EXPECT_TRUE(none.empty());
    // Only the check cost elapsed, no polling loop.
    EXPECT_LT(f_.sim.Now() - before, 500);
  });
}

TEST_F(ClientTest, PollRemoveDropsRequest) {
  RunClient([&]() -> sim::Task<void> {
    auto& ctx = client_->thread(0);
    auto a = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap, 8);
    auto b = co_await ctx.AsyncRead(*thread_, kRegion, 8, kHeap + 8, 8);
    const PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *a);
    ctx.PollAdd(poll, *b);
    ctx.PollRemove(poll, *a);
    WriteRed(0, 2, 0, 2);
    auto done = co_await ctx.PollWait(*thread_, poll, 4, Micros(10));
    EXPECT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], *b);
  });
}

TEST_F(ClientTest, RespRingWrapPadsToContiguous) {
  // resp ring is 4096B; a 3000B read then a 2000B read: the second must be
  // padded to start at ring offset 0 — after the first is retired.
  const auto& layout = client_->descriptor().layout;
  RunClient([&]() -> sim::Task<void> {
    auto& ctx = client_->thread(0);
    auto a = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap, 3000);
    EXPECT_TRUE(a.has_value());
    // Complete it so the ring head can advance past it on reconcile.
    std::vector<std::uint8_t> p1(3000, 1);
    f_.client(0).mem.Write(layout.RespRingAddr(0), p1);
    WriteRed(0, 1, 0, 1);
    const PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *a);
    auto done = co_await ctx.PollWait(*thread_, poll, 1, Micros(10));
    EXPECT_EQ(done.size(), 1u);
    // Second read would straddle the physical end (offset 3000 + 2000 >
    // 4096) → reservation is padded to offset 0.
    auto b = co_await ctx.AsyncRead(*thread_, kRegion, 0, kHeap + 4096, 2000);
    EXPECT_TRUE(b.has_value());
    std::vector<std::uint8_t> raw(kMetadataEntryBytes);
    f_.client(0).mem.Read(layout.MetaSlotAddr(0, 1), raw);
    EXPECT_EQ(RequestMetadata::ParseBytes(raw).resp_addr,
              layout.RespRingAddr(0));  // wrapped to the start
  });
}

TEST_F(ClientTest, ThreadsAreIndependent) {
  RunClient([&]() -> sim::Task<void> {
    auto a = co_await client_->thread(0).AsyncRead(*thread_, kRegion, 0,
                                                   kHeap, 8);
    auto b = co_await client_->thread(1).AsyncRead(*thread_, kRegion, 0,
                                                   kHeap + 8, 8);
    EXPECT_EQ(a->thread(), 0);
    EXPECT_EQ(b->thread(), 1);
    EXPECT_EQ(a->seq(), 1u);
    EXPECT_EQ(b->seq(), 1u);  // per-thread sequences
  });
}

TEST_F(ClientTest, IssueChargesCowbirdPostNotVerbs) {
  RunClient([&]() -> sim::Task<void> {
    (void)co_await client_->thread(0).AsyncRead(*thread_, kRegion, 0, kHeap,
                                                8);
  });
  rdma::CostModel costs;
  EXPECT_EQ(thread_->TimeIn(sim::CpuCategory::kCommunication),
            costs.cowbird_post);
  EXPECT_LT(thread_->TimeIn(sim::CpuCategory::kCommunication),
            costs.PostTotal() / 5);
}

}  // namespace
}  // namespace cowbird::core
