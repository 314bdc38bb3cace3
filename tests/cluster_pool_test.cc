// Elastic cluster pool (DESIGN.md §14): grow/spill/rebalance semantics of the
// multi-server allocator, and the exactness of the translation table the
// P4 range-match stage and the spot agent both mirror.
#include <gtest/gtest.h>

#include <string>

#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/instance.h"
#include "fabric_fixture.h"
#include "spot/agent.h"

namespace cowbird::core {
namespace {

constexpr std::uint64_t kSlabA = 0x100000;
constexpr std::uint64_t kSlabB = 0x900000;
constexpr std::uint64_t kVbase = 0x4000'0000;
constexpr std::uint16_t kRegion = 7;
constexpr std::uint64_t kHeap = 0x4000000;

// The raw free-list arithmetic under every server's slab: first fit, and
// coalescing on release.
TEST(ExtentAllocator, AllocateReleaseCoalesce) {
  ExtentAllocator extents(kSlabA, MiB(1));
  const auto a = extents.Allocate(KiB(256));
  const auto b = extents.Allocate(KiB(256));
  const auto c = extents.Allocate(KiB(256));
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, kSlabA);
  EXPECT_EQ(*b, kSlabA + KiB(256));
  EXPECT_EQ(extents.allocated(), KiB(768));

  // Release the middle: fragment count grows.
  extents.Release(*b, KiB(256));
  EXPECT_EQ(extents.fragments(), 2u);
  // A request larger than any fragment fails even though total free fits.
  EXPECT_FALSE(extents.Allocate(KiB(512)).has_value());
  // Release neighbours: everything coalesces back into one extent.
  extents.Release(*a, KiB(256));
  extents.Release(*c, KiB(256));
  EXPECT_EQ(extents.fragments(), 1u);
  EXPECT_EQ(extents.allocated(), 0u);
  EXPECT_TRUE(extents.Allocate(MiB(1)).has_value());
}

class ClusterPoolTest : public ::testing::Test {
 protected:
  workload::Cluster f_{workload::ClusterSpec{}};
  ClusterPool pool_;
};

TEST_F(ClusterPoolTest, SingleServerRegionIsOneIdentityRange) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(64));
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                           testing::kMemoryId);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->region_id, kRegion);
  EXPECT_EQ(region->remote_base, kVbase);
  EXPECT_EQ(region->size, KiB(16));
  const auto ranges = pool_.RangesFor(kRegion);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].node, testing::kMemoryId);
  EXPECT_EQ(ranges[0].length, KiB(16));
}

TEST_F(ClusterPoolTest, ExhaustedPreferredServerSpillsToTheNext) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(16));
  pool_.AddServer(*f_.spot().dev, kSlabB, MiB(1));
  // 64 KiB region into a 16 KiB preferred slab: the head lands on the
  // preferred server, the tail spills — two ranges, contiguous virtually.
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(64),
                                           testing::kMemoryId);
  ASSERT_TRUE(region.has_value());
  const auto ranges = pool_.RangesFor(kRegion);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].node, testing::kMemoryId);
  EXPECT_EQ(ranges[0].length, KiB(16));
  EXPECT_EQ(ranges[1].node, testing::kSpotId);
  EXPECT_EQ(ranges[1].length, KiB(48));
  EXPECT_EQ(ranges[0].vbase + ranges[0].length, ranges[1].vbase);
}

TEST_F(ClusterPoolTest, AllocationTooBigForTheWholeClusterLeaksNothing) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(16));
  pool_.AddServer(*f_.spot().dev, kSlabB, KiB(16));
  EXPECT_FALSE(
      pool_.AllocateRegion(kRegion, kVbase, KiB(64), testing::kMemoryId)
          .has_value());
  // Nothing was carved: the full capacity is still allocatable.
  EXPECT_TRUE(
      pool_.AllocateRegion(kRegion, kVbase, KiB(32), testing::kMemoryId)
          .has_value());
}

TEST_F(ClusterPoolTest, TranslationResolvesFirstAndLastByteOfEachRange) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(16));
  pool_.AddServer(*f_.spot().dev, kSlabB, MiB(1));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(32),
                                   testing::kMemoryId)
                  .has_value());
  // First byte of the region.
  auto t = pool_.table().Lookup(kRegion, kVbase, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, testing::kMemoryId);
  EXPECT_EQ(t->addr, kSlabA);
  // Last byte of the preferred range.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(16) - 1, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, testing::kMemoryId);
  EXPECT_EQ(t->addr, kSlabA + KiB(16) - 1);
  // First byte past the boundary resolves to the spill server.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(16), 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, testing::kSpotId);
  EXPECT_EQ(t->addr, kSlabB);
  // Last byte of the region.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(32) - 1, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, testing::kSpotId);
  // An access straddling the range boundary must not silently resolve to
  // the first range.
  TranslateError error;
  EXPECT_FALSE(
      pool_.table().Lookup(kRegion, kVbase + KiB(16) - 8, 16, &error)
          .has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kStraddle);
}

TEST_F(ClusterPoolTest, UnmappedHoleFailsWithAStructuredError) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, MiB(1));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   testing::kMemoryId)
                  .has_value());
  ASSERT_TRUE(pool_.AllocateRegion(kRegion + 1, kVbase + MiB(16), KiB(16),
                                   testing::kMemoryId)
                  .has_value());
  TranslateError error;
  EXPECT_FALSE(pool_.table()
                   .Lookup(kRegion, kVbase + MiB(8), 64, &error)
                   .has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kUnmappedHole);
  EXPECT_TRUE(error.has_below);
  // The report names the faulting address and the nearest mapped ranges,
  // page-fault style.
  const std::string text = error.ToString();
  EXPECT_NE(text.find("hole"), std::string::npos) << text;
  // Unknown region id is its own kind.
  EXPECT_FALSE(
      pool_.table().Lookup(kRegion + 9, kVbase, 64, &error).has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kUnknownRegion);
}

TEST_F(ClusterPoolTest, CommitMoveRetargetsAtomicallyAndFreesTheSource) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(64));
  pool_.AddServer(*f_.spot().dev, kSlabB, KiB(64));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   testing::kMemoryId)
                  .has_value());
  const auto plan = pool_.PlanMove(kRegion, kVbase, testing::kSpotId);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->src_node, testing::kMemoryId);
  EXPECT_EQ(plan->dst_node, testing::kSpotId);
  // Before the commit every lookup still resolves to the source.
  EXPECT_EQ(pool_.table().Lookup(kRegion, kVbase, 1)->node,
            testing::kMemoryId);
  pool_.CommitMove(*plan);
  EXPECT_EQ(pool_.table().Lookup(kRegion, kVbase, 1)->node,
            testing::kSpotId);
  // The source extent was released: nothing is left allocated on the
  // source server.
  const auto servers = pool_.servers();
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[0].node, testing::kMemoryId);
  EXPECT_EQ(servers[0].allocated, 0u);
}

TEST_F(ClusterPoolTest, DescriptorShipsClusterRangesToTheEngineMirror) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, KiB(16));
  pool_.AddServer(*f_.spot().dev, kSlabB, MiB(1));
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(32),
                                           testing::kMemoryId);
  ASSERT_TRUE(region.has_value());
  InstanceDescriptor desc;
  desc.regions.push_back(*region);
  desc.ranges = pool_.RangesFor(kRegion);
  const TranslationTable mirror = desc.BuildTranslation();
  ASSERT_EQ(mirror.size(), 2u);
  EXPECT_EQ(mirror.Lookup(kRegion, kVbase + KiB(16), 1)->node,
            testing::kSpotId);

  // Without explicit ranges the mirror falls back to identity mapping —
  // the pre-elastic-pool behavior every legacy caller still relies on.
  InstanceDescriptor legacy;
  legacy.regions.push_back(RegionInfo{kRegion, testing::kMemoryId,
                                      kVbase, region->rkey, KiB(32)});
  const TranslationTable identity = legacy.BuildTranslation();
  const auto t = identity.Lookup(kRegion, kVbase + 100, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, testing::kMemoryId);
  EXPECT_EQ(t->addr, kVbase + 100);
}

// End-to-end: a region carved from a one-server pool is directly usable as
// a Cowbird region — the spot agent translates it onto the pool's slab.
TEST_F(ClusterPoolTest, OneServerRegionServesRdmaThroughSpot) {
  pool_.AddServer(*f_.memory(0).dev, kSlabA, MiB(8));
  const auto region =
      pool_.AllocateRegion(kRegion, kVbase, MiB(1), testing::kMemoryId);
  ASSERT_TRUE(region.has_value());

  CowbirdClient& client = f_.AddClient(0, testing::SmallRings(1));
  client.RegisterRegion(*region);
  client.SetRegionRanges(kRegion, pool_.RangesFor(kRegion));
  spot::SpotAgent& agent = f_.AddSpotAgent(spot::SpotAgent::Config{});
  f_.Attach(agent, client);
  agent.Start();

  const std::vector<std::uint8_t> data(64, 0x5C);
  f_.memory(0).mem.Write(pool_.RangesFor(kRegion)[0].server_base + 128, data);
  sim::SimThread thread(*f_.client(0).machine, "app");
  std::vector<std::uint8_t> got;
  f_.sim.Spawn([](workload::Cluster& f, CowbirdClient& cl, sim::SimThread& thr,
                  std::vector<std::uint8_t>& out) -> sim::Task<void> {
    out = co_await testing::ReadAndWait(f, cl, 0, thr, 128, 64, kHeap,
                                        kRegion);
    f.sim.Halt();
  }(f_, client, thread, got));
  f_.sim.Run();
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace cowbird::core
