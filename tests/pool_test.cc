#include "common/pool.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_function.h"
#include "gtest/gtest.h"
#include "telemetry/metrics.h"

namespace cowbird {
namespace {

struct Tracked {
  static int live;
  int value = 0;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(Pool, AcquireReleaseRecyclesSlots) {
  Pool<Tracked> pool(4);
  const PoolHandle a = pool.Acquire(7);
  ASSERT_TRUE(a);
  EXPECT_EQ(pool.Get(a)->value, 7);
  EXPECT_EQ(Tracked::live, 1);

  pool.Release(a);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_FALSE(pool.Valid(a));

  // The slot comes back under a new generation.
  const PoolHandle b = pool.Acquire(8);
  EXPECT_EQ(b.index, a.index);
  EXPECT_NE(b.generation, a.generation);
  EXPECT_EQ(pool.Get(b)->value, 8);
  pool.Release(b);
}

TEST(Pool, ExhaustionReturnsNullHandleAndCounts) {
  Pool<int> pool(2);
  const PoolHandle a = pool.Acquire(1);
  const PoolHandle b = pool.Acquire(2);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);

  const PoolHandle c = pool.Acquire(3);
  EXPECT_TRUE(c.IsNull());
  EXPECT_EQ(pool.stats().exhausted_total, 1u);
  EXPECT_EQ(pool.stats().in_use, 2u);

  // Releasing makes the slot available again; the exhaustion stays counted.
  pool.Release(a);
  const PoolHandle d = pool.Acquire(4);
  EXPECT_TRUE(d);
  EXPECT_EQ(pool.stats().exhausted_total, 1u);
}

TEST(Pool, ExhaustedCounterSurfacesThroughRegistryGauge) {
  Pool<int> pool(1);
  telemetry::MetricRegistry registry;
  telemetry::CallbackGauges gauges;
  BindPoolTelemetry(gauges, registry, telemetry::Labels{{"pool", "test"}},
                    pool.stats());

  (void)pool.Acquire(1);
  (void)pool.Acquire(2);  // exhausts
  const auto snapshot = registry.TakeSnapshot();
  bool saw_exhausted = false, saw_in_use = false, saw_high_water = false;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.key.find("pool_exhausted_total") == 0) {
      saw_exhausted = true;
      EXPECT_EQ(gauge.value, 1);
    } else if (gauge.key.find("pool_in_use") == 0) {
      saw_in_use = true;
      EXPECT_EQ(gauge.value, 1);
    } else if (gauge.key.find("pool_high_water") == 0) {
      saw_high_water = true;
      EXPECT_EQ(gauge.value, 1);
    }
  }
  EXPECT_TRUE(saw_exhausted);
  EXPECT_TRUE(saw_in_use);
  EXPECT_TRUE(saw_high_water);
  gauges.Clear();
  EXPECT_TRUE(registry.TakeSnapshot().gauges.empty());
}

TEST(Pool, HighWaterTracksPeakNotCurrent) {
  Pool<int> pool(8);
  std::vector<PoolHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(pool.Acquire(i));
  EXPECT_EQ(pool.stats().high_water, 5u);
  for (const PoolHandle h : handles) pool.Release(h);
  EXPECT_EQ(pool.stats().in_use, 0u);
  EXPECT_EQ(pool.stats().high_water, 5u);

  (void)pool.Acquire(9);
  EXPECT_EQ(pool.stats().high_water, 5u);
}

TEST(Pool, GrowablePoolKeepsAddressesStableAcrossGrowth) {
  Pool<int> pool(2, /*growable=*/true);
  std::vector<PoolHandle> handles;
  std::vector<int*> addrs;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(pool.Acquire(i));
    addrs.push_back(pool.Get(handles.back()));
  }
  EXPECT_EQ(pool.stats().exhausted_total, 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(pool.Get(handles[i]), addrs[i]);
    EXPECT_EQ(*pool.Get(handles[i]), i);
  }

  // One-slot slabs: every Acquire adds a slab, and addresses still hold
  // past 10,000 slots.
  Pool<int> fine(1, /*growable=*/true);
  constexpr int kSlots = 10'001;
  std::vector<PoolHandle> fine_handles;
  std::vector<int*> fine_addrs;
  for (int i = 0; i < kSlots; ++i) {
    fine_handles.push_back(fine.Acquire(i));
    fine_addrs.push_back(fine.Get(fine_handles.back()));
  }
  EXPECT_EQ(fine.capacity(), static_cast<std::size_t>(kSlots));
  EXPECT_EQ(fine.stats().exhausted_total, 0u);
  for (int i = 0; i < kSlots; ++i) {
    ASSERT_EQ(fine.Get(fine_handles[i]), fine_addrs[i]);
    ASSERT_EQ(*fine.Get(fine_handles[i]), i);
  }
}

using PoolDeathTest = ::testing::Test;

TEST(PoolDeathTest, StaleGenerationIsCaughtNotAliased) {
  Pool<int> pool(2);
  const PoolHandle a = pool.Acquire(1);
  pool.Release(a);
  const PoolHandle b = pool.Acquire(2);  // recycles a's slot
  ASSERT_EQ(b.index, a.index);

  // The recycled slot's old handle must die loudly, not read the new
  // tenant: this is the ABA case the generation tag exists for.
  EXPECT_DEATH((void)pool.Get(a), "CHECK failed");
  EXPECT_EQ(pool.TryGet(a), nullptr);
  EXPECT_DEATH(pool.Release(a), "CHECK failed");
}

TEST(FixedDeque, FifoOrderAndGrowth) {
  FixedDeque<int> dq(2);
  for (int i = 0; i < 100; ++i) dq.push_back(i);
  EXPECT_EQ(dq.size(), 100u);
  EXPECT_EQ(dq.front(), 0);
  EXPECT_EQ(dq.back(), 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dq.front(), i);
    dq.pop_front();
  }
  EXPECT_TRUE(dq.empty());
}

TEST(FixedDeque, WrapsWithoutReallocatingInSteadyState) {
  FixedDeque<std::string> dq(4);
  // Push/pop cycles far beyond capacity: the ring just wraps.
  for (int round = 0; round < 1000; ++round) {
    dq.push_back("r" + std::to_string(round));
    dq.push_back("s" + std::to_string(round));
    EXPECT_EQ(dq.front(), "r" + std::to_string(round));
    dq.pop_front();
    dq.pop_front();
  }
  EXPECT_TRUE(dq.empty());
}

TEST(FixedDeque, EraseAtPreservesOrder) {
  FixedDeque<int> dq;
  for (int i = 0; i < 8; ++i) dq.push_back(i);
  dq.erase_at(3);
  dq.erase_at(0);
  dq.erase_at(5);  // was 7
  std::vector<int> rest;
  for (int v : dq) rest.push_back(v);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(DenseMap, InsertFindErase) {
  DenseMap<std::string> map;
  for (std::uint64_t k = 0; k < 200; ++k) {
    map[k * 977] = "v" + std::to_string(k);
  }
  EXPECT_EQ(map.size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    auto* v = map.Find(k * 977);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  EXPECT_EQ(map.Find(12345), nullptr);

  // Erase every other key; the rest must survive the backward shifts.
  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_TRUE(map.Erase(k * 977));
  EXPECT_EQ(map.size(), 100u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.Find(k * 977), nullptr);
    } else {
      ASSERT_NE(map.Find(k * 977), nullptr);
    }
  }
  EXPECT_FALSE(map.Erase(999999));
}

TEST(InlineFunction, CallsAndMovesWithoutCopy) {
  int calls = 0;
  InlineFunction<void()> f([&calls] { ++calls; });
  f();
  InlineFunction<void()> g = std::move(f);
  g();
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(g));
}

TEST(InlineFunction, CarriesMoveOnlyCaptures) {
  auto payload = std::make_unique<int>(42);
  InlineFunction<int()> f(
      [p = std::move(payload)] { return *p; });
  EXPECT_EQ(f(), 42);
}

TEST(InlineFunction, OversizedCapturesStillWork) {
  struct Big {
    char bytes[256] = {};
  };
  Big big;
  big.bytes[200] = 7;
  InlineFunction<int(), 64> f([big] { return int{big.bytes[200]}; });
  InlineFunction<int(), 64> g = std::move(f);
  EXPECT_EQ(g(), 7);
}

// CallOnce runs the callable and destroys its captures before returning,
// inline or boxed, and leaves the function empty.
TEST(InlineFunction, CallOnceInvokesThenDestroys) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  InlineFunction<int()> inline_fn(
      [t = std::move(token), &watch] { return *t + watch.use_count(); });
  EXPECT_EQ(inline_fn.CallOnce(), 6);  // the capture was alive in the call
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(inline_fn));

  struct Big {
    char bytes[256] = {};
  };
  auto boxed_token = std::make_shared<int>(9);
  std::weak_ptr<int> boxed_watch = boxed_token;
  InlineFunction<int(), 64> boxed(
      [big = Big{}, t = std::move(boxed_token)] { return *t + big.bytes[0]; });
  EXPECT_EQ(boxed.CallOnce(), 9);
  EXPECT_TRUE(boxed_watch.expired());
  EXPECT_FALSE(static_cast<bool>(boxed));
}

}  // namespace
}  // namespace cowbird
