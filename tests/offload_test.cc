// Unit tests for the shared offload-engine core: hazard policies, probe
// scheduling, and red-block packing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "offload/hazard_tracker.h"
#include "offload/probe_scheduler.h"
#include "offload/progress.h"

namespace cowbird::offload {
namespace {

constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------- hazards

TEST(RangesOverlap, BasicAndAdjacent) {
  const HazardRange w{1, 100, 100};  // [100, 200)
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 150, 10}));
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 199, 50}));
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 50, 51}));
  // Adjacent-but-not-overlapping: half-open ranges sharing an endpoint.
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 0, 100}));
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 200, 100}));
}

TEST(RangesOverlap, DifferentRegionsNeverOverlap) {
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 100, 100},
                             HazardRange{2, 100, 100}));
}

TEST(RangesOverlap, ZeroLengthIsEmpty) {
  const HazardRange w{1, 100, 100};
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 150, 0}));
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 150, 0}, w));
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 0, 0}, HazardRange{1, 0, 0}));
}

TEST(RangesOverlap, WrappingRanges) {
  // [2^64-10, 2^64) ∪ [0, 10): a ring-wrap range.
  const HazardRange wrap{1, kTop - 9, 20};
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, 5, 2}));        // low piece
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop - 5, 2}));  // high piece
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop, 1}));      // top byte
  EXPECT_FALSE(RangesOverlap(wrap, HazardRange{1, 10, 100}));     // the gap
  // Two wrapping ranges always share the top byte.
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop - 100, 200}));
}

TEST(HazardTracker, ExactRangeBlocksOnlyOverlappingReads) {
  HazardTracker t(HazardTracker::Policy::kExactRange);
  const auto ticket = t.AdmitWrite(HazardRange{1, 0x1000, 0x100});
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x1080, 8}));
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x2000, 8}));
  EXPECT_FALSE(t.ReadBlocked(HazardRange{2, 0x1080, 8}));  // other region
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1080, 0}));  // zero-length read
  t.RetireWrite(ticket);
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1080, 8}));
  EXPECT_EQ(t.active_writes(), 0u);
}

TEST(HazardTracker, FenceBlocksEveryReadWhileAnyWriteInFlight) {
  HazardTracker t(HazardTracker::Policy::kFenceAllReads);
  const auto ticket = t.AdmitWrite(HazardRange{1, 0x1000, 0x100});
  // The fence ignores ranges entirely (Section 5.3: the RMT pipeline cannot
  // range-compare), so even disjoint and zero-length reads pause.
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x9000, 8}));
  EXPECT_TRUE(t.ReadBlocked(HazardRange{2, 0x1000, 8}));
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0, 0}));
  t.RetireWrite(ticket);
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1000, 8}));
}

TEST(HazardTracker, ReadsOnlyStallOnEarlierWrites) {
  for (const auto policy : {HazardTracker::Policy::kFenceAllReads,
                            HazardTracker::Policy::kExactRange}) {
    HazardTracker t(policy);
    const auto frontier = t.ReadFrontier();  // read probed now
    t.AdmitWrite(HazardRange{1, 0x1000, 0x100});  // write probed later
    EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1000, 8}, frontier))
        << "policy " << static_cast<int>(policy);
    // A read probed after the write does stall.
    EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x1000, 8}, t.ReadFrontier()));
  }
}

TEST(HazardTracker, FenceStallsSupersetOfExactRange) {
  // Property (randomized): whatever the write set, any read the exact
  // policy stalls is also stalled by the fence policy.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    HazardTracker fence(HazardTracker::Policy::kFenceAllReads);
    HazardTracker exact(HazardTracker::Policy::kExactRange);
    const int writes = static_cast<int>(rng.Below(4));
    for (int w = 0; w < writes; ++w) {
      const HazardRange range{static_cast<std::uint16_t>(rng.Below(2)),
                              rng.Below(0x1000),
                              rng.Below(0x200)};
      fence.AdmitWrite(range);
      exact.AdmitWrite(range);
    }
    const HazardRange read{static_cast<std::uint16_t>(rng.Below(2)),
                           rng.Below(0x1000), rng.Below(0x200)};
    if (exact.ReadBlocked(read)) {
      EXPECT_TRUE(fence.ReadBlocked(read))
          << "trial " << trial << ": exact stalled a read the fence passed";
    }
  }
}

// -------------------------------------------------------------- scheduler

TEST(ProbeScheduler, NonAdaptiveIntervalIsFixed) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kRoundRobin});
  s.OnProbeOutcome(false);
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(2));
}

TEST(ProbeScheduler, AdaptiveRampDoublesAndSnapsBack) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), true, Micros(16),
                                          ProbeSelection::kRoundRobin});
  EXPECT_EQ(s.current_interval(), Micros(2));
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(4));
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(8));
  s.OnProbeOutcome(false);
  s.OnProbeOutcome(false);  // capped at interval_max
  EXPECT_EQ(s.current_interval(), Micros(16));
  s.OnProbeOutcome(true);  // activity: snap back to the baseline
  EXPECT_EQ(s.current_interval(), Micros(2));
}

TEST(ProbeScheduler, RoundRobinCyclesAndMayReturnIneligible) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kRoundRobin});
  std::vector<ProbeScheduler::Candidate> c(3);
  c[1].eligible = false;  // probe in flight: the TDM slot is still consumed
  EXPECT_EQ(s.PickNext(c), 0u);
  EXPECT_EQ(s.PickNext(c), 1u);  // caller checks eligibility and skips
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 0u);
}

TEST(ProbeScheduler, ActivityWeightedPrefersBusiestThreeOfFourTicks) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kActivityWeighted});
  std::vector<ProbeScheduler::Candidate> c(3);
  c[2].activity_credit = 100;
  EXPECT_EQ(s.PickNext(c), 0u);  // tick 0: round-robin pass
  EXPECT_EQ(s.PickNext(c), 2u);  // ticks 1..3: busiest instance
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 1u);  // tick 4: round-robin slot 4 % 3
}

TEST(ProbeScheduler, WeightedFallsBackToRoundRobinWhenNoneEligible) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kActivityWeighted});
  std::vector<ProbeScheduler::Candidate> c(2);
  c[0].eligible = false;
  c[1].eligible = false;
  EXPECT_EQ(s.PickNext(c), 0u);  // tick 0 rr
  EXPECT_EQ(s.PickNext(c), 1u);  // tick 1: weighted finds nobody, rr slot
  EXPECT_EQ(s.PickNext(std::span<const ProbeScheduler::Candidate>{}),
            ProbeScheduler::kNone);
}

TEST(ProbeScheduler, DecayCredit) {
  EXPECT_EQ(ProbeScheduler::DecayCredit(100), 75u);
  EXPECT_EQ(ProbeScheduler::DecayCredit(4), 3u);
  EXPECT_EQ(ProbeScheduler::DecayCredit(0), 0u);
}

// --------------------------------------------------------------- progress

TEST(RedBlock, PackUnpackRoundTrips) {
  core::RedBlock p;
  p.meta_head = 0x0102030405060708;
  p.data_head = 11;
  p.resp_tail = 22;
  p.write_progress = 33;
  p.read_progress = 44;
  std::array<std::uint8_t, core::kRedBlockBytes> block{};
  p.Pack(block);
  const core::RedBlock q = core::RedBlock::Unpack(block);
  EXPECT_EQ(q.meta_head, p.meta_head);
  EXPECT_EQ(q.data_head, p.data_head);
  EXPECT_EQ(q.resp_tail, p.resp_tail);
  EXPECT_EQ(q.write_progress, p.write_progress);
  EXPECT_EQ(q.read_progress, p.read_progress);
}

TEST(RedBlock, WireLayoutIsLittleEndianU64s) {
  core::RedBlock p;
  p.meta_head = 0x0102030405060708;
  p.read_progress = 0xAABB;
  std::array<std::uint8_t, core::kRedBlockBytes> block{};
  p.Pack(block);
  EXPECT_EQ(block[0], 0x08);  // least-significant byte first
  EXPECT_EQ(block[7], 0x01);
  EXPECT_EQ(block[32], 0xBB);
  EXPECT_EQ(block[33], 0xAA);
  static_assert(core::kRedBlockBytes == 40);
}

TEST(ReconcileWithPublished, TakesTheNewerSideAndMarksUnpublishedThreads) {
  // Thread 0's export trails the red block (a delivered batch whose ACK the
  // engine never saw); thread 1's runs ahead of it (completions whose red
  // write never landed).
  InstanceProgress snapshot;
  snapshot.threads.resize(2);
  snapshot.threads[0].read_progress = 480;
  snapshot.threads[1].meta_head = 8228;
  snapshot.threads[1].read_progress = 5781;
  PendingOp covered;
  covered.meta.rw_type = core::RwType::kRead;
  covered.seq = 490;
  PendingOp beyond = covered;
  beyond.seq = 510;
  snapshot.pending = {{covered, beyond}, {}};
  std::vector<core::RedBlock> published(2);
  published[0].read_progress = 502;
  published[1].meta_head = 8212;
  published[1].read_progress = 5770;

  ReconcileWithPublished(snapshot, published);
  EXPECT_EQ(snapshot.threads[0].read_progress, 502u);
  ASSERT_EQ(snapshot.pending[0].size(), 1u);
  EXPECT_EQ(snapshot.pending[0][0].seq, 510u);
  EXPECT_EQ(snapshot.threads[1].meta_head, 8228u);
  EXPECT_EQ(snapshot.threads[1].read_progress, 5781u);
  EXPECT_EQ(snapshot.unpublished, (std::vector<bool>{false, true}));
}

}  // namespace
}  // namespace cowbird::offload
