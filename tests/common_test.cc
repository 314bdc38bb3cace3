#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "common/stats.h"
#include "common/units.h"

namespace cowbird {
namespace {

TEST(Units, TransmitTimeMatchesRate) {
  const BitRate r = BitRate::Gbps(100);
  // 100 Gbps = 12.5 bytes per ns → 1250 bytes take 100 ns.
  EXPECT_EQ(r.TransmitTime(1250), 100);
  // Rounds up: 1 byte at 100 Gbps is 0.08 ns → 1 ns.
  EXPECT_EQ(r.TransmitTime(1), 1);
  EXPECT_EQ(r.TransmitTime(0), 0);
}

TEST(Units, TransmitTimeSlowLink) {
  const BitRate r = BitRate::Mbps(1);
  EXPECT_EQ(r.TransmitTime(125), Micros(1000));  // 1000 bits at 1 Mbps = 1 ms
}

TEST(Units, MopsConversion) {
  EXPECT_DOUBLE_EQ(Mops(1'000'000, Seconds(1)), 1.0);
  EXPECT_DOUBLE_EQ(Mops(0, Seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(Mops(5, 0), 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(PercentileSampler, ExactQuantiles) {
  PercentileSampler p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Median(), 50.5, 1e-9);
  EXPECT_NEAR(p.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.P99(), 99.01, 1e-9);
}

TEST(PercentileSampler, InterleavedAddAndQuery) {
  PercentileSampler p;
  p.Add(10);
  EXPECT_DOUBLE_EQ(p.Median(), 10.0);
  p.Add(20);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(p.Median(), 15.0);
}

TEST(PercentileSampler, AddAfterQuantileInvalidatesSortCache) {
  // Regression: Add() used to leave the sorted_ flag set after a Quantile()
  // call, so later queries indexed into a stale, unsorted vector. Append
  // out of order so a stale cache yields a visibly wrong rank.
  PercentileSampler p;
  p.Add(30);
  EXPECT_DOUBLE_EQ(p.Median(), 30.0);  // sorts and caches
  p.Add(10);
  p.Add(20);
  EXPECT_DOUBLE_EQ(p.Median(), 20.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 30.0);
}

TEST(PercentileSampler, ClearResetsSortCache) {
  PercentileSampler p;
  p.Add(5);
  EXPECT_DOUBLE_EQ(p.Median(), 5.0);
  p.Clear();
  p.Add(9);
  p.Add(1);
  EXPECT_DOUBLE_EQ(p.Median(), 5.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
}

TEST(LogHistogram, QuantileBounds) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100);   // bucket [64,128)
  for (int i = 0; i < 10; ++i) h.Add(100000);  // far tail
  EXPECT_LE(h.QuantileUpperBound(0.5), 127u);
  EXPECT_GE(h.QuantileUpperBound(0.999), 100000u - 1);
}

TEST(RingCursors, PushPopWrap) {
  RingCursors ring(4);
  EXPECT_TRUE(ring.Empty());
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(ring.Full());
      const auto cursor = ring.Push();
      EXPECT_EQ(ring.Slot(cursor), (round * 4 + i) % 4);
    }
    EXPECT_TRUE(ring.Full());
    for (std::uint64_t i = 0; i < 4; ++i) ring.Pop();
    EXPECT_TRUE(ring.Empty());
  }
  // Cursors are monotonic, never reset by wrap.
  EXPECT_EQ(ring.head(), 12u);
  EXPECT_EQ(ring.tail(), 12u);
}

TEST(RingCursors, AdvanceTo) {
  RingCursors ring(8);
  for (int i = 0; i < 5; ++i) ring.Push();
  ring.AdvanceHeadTo(3);
  EXPECT_EQ(ring.Size(), 2u);
  ring.AdvanceTailTo(9);
  EXPECT_EQ(ring.Size(), 6u);
}

TEST(ByteRing, ReserveRelease) {
  ByteRing ring(100);
  EXPECT_TRUE(ring.CanReserve(100));
  EXPECT_FALSE(ring.CanReserve(101));
  const auto at = ring.Reserve(60);
  EXPECT_EQ(at, 0u);
  EXPECT_EQ(ring.Free(), 40u);
  ring.Release(60);
  EXPECT_EQ(ring.Free(), 100u);
}

TEST(ByteRing, SplitSpanWraps) {
  ByteRing ring(100);
  ring.Reserve(80);
  ring.Release(80);
  const auto at = ring.Reserve(50);  // bytes 80..130 → wraps at 100
  const auto split = ring.SplitSpan(at, 50);
  EXPECT_EQ(split.first.offset, 80u);
  EXPECT_EQ(split.first.len, 20u);
  EXPECT_EQ(split.second.offset, 0u);
  EXPECT_EQ(split.second.len, 30u);
}

TEST(ByteRing, SplitSpanNoWrap) {
  ByteRing ring(100);
  const auto split = ring.SplitSpan(10, 50);
  EXPECT_EQ(split.first.offset, 10u);
  EXPECT_EQ(split.first.len, 50u);
  EXPECT_EQ(split.second.len, 0u);
}

TEST(SparseMemory, ReadBackWritten) {
  SparseMemory mem;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  mem.Write(123456, data);
  std::vector<std::uint8_t> out(data.size());
  mem.Read(123456, out);
  EXPECT_EQ(out, data);
}

TEST(SparseMemory, UnwrittenReadsZero) {
  SparseMemory mem;
  std::vector<std::uint8_t> out(64, 0xFF);
  mem.Read(1ull << 40, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

constexpr std::uint64_t kPage = 4096;

TEST(SparseMemory, CrossPageWrite) {
  SparseMemory mem;
  std::vector<std::uint8_t> data(kPage * 3, 0xAB);
  const std::uint64_t addr = kPage - 100;
  mem.Write(addr, data);
  std::vector<std::uint8_t> out(data.size());
  mem.Read(addr, out);
  EXPECT_EQ(out, data);
}

TEST(SparseMemory, TypedValues) {
  SparseMemory mem;
  mem.WriteValue<std::uint64_t>(8, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem.ReadValue<std::uint64_t>(8), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem.ReadValue<std::uint32_t>(8), 0xCAFEF00Du);  // little endian
}

std::vector<std::uint8_t> Filled(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + seed);
  }
  return data;
}

constexpr std::uint64_t kSpace = SparseMemory::kAddressSpace;

TEST(SparseMemory, LastBytesOfTheSpaceReadBack) {
  SparseMemory mem;
  const auto data = Filled(3 * kPage, 1);
  mem.Write(kSpace - data.size(), data);
  std::vector<std::uint8_t> back(data.size());
  mem.Read(kSpace - data.size(), back);
  EXPECT_EQ(back, data);
  // A read running off the end gets the last bytes, then zeros.
  std::vector<std::uint8_t> straddle(16, 0xFF);
  mem.Read(kSpace - 8, straddle);
  EXPECT_TRUE(std::equal(straddle.begin(), straddle.begin() + 8,
                         data.end() - 8));
  for (std::size_t i = 8; i < straddle.size(); ++i) EXPECT_EQ(straddle[i], 0);
}

TEST(SparseMemoryDeathTest, WriteLeavingTheSpaceDies) {
  SparseMemory mem;
  const auto data = Filled(16, 2);
  EXPECT_DEATH(mem.Write(kSpace - 8, data), "CHECK failed");
  EXPECT_DEATH(mem.Write(kSpace, data), "CHECK failed");
  EXPECT_DEATH(mem.Write(~std::uint64_t{0} - 4, data), "CHECK failed");
}

TEST(SparseMemory, TwoMemoriesNeverAlias) {
  SparseMemory a;
  SparseMemory b;
  const auto in_a = Filled(2 * kPage, 3);
  const auto in_b = Filled(2 * kPage, 4);
  a.Write(0x10000 + 100, in_a);
  b.Write(0x10000 + 100, in_b);
  std::vector<std::uint8_t> back(in_a.size());
  a.Read(0x10000 + 100, back);
  EXPECT_EQ(back, in_a);
  b.Read(0x10000 + 100, back);
  EXPECT_EQ(back, in_b);
  // Bytes one memory wrote read as zeros in the other.
  a.Write(kSpace - in_a.size(), in_a);
  b.Read(kSpace - in_a.size(), back);
  EXPECT_EQ(back, std::vector<std::uint8_t>(back.size(), 0));
}

}  // namespace
}  // namespace cowbird
