// Google-benchmark microbenchmarks of the implementation's hot paths —
// real wall-clock numbers for the code the simulator executes per event.
// These bound the simulator's own throughput (events/s), independent of
// the modelled virtual-time costs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "core/request.h"
#include "rdma/wire.h"
#include "sim/simulation.h"
#include "telemetry/hub.h"
#include "workload/generator.h"

namespace {

using namespace cowbird;

void BM_WireBuildParseReadRequest(benchmark::State& state) {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadRequest;
  bth.dest_qp = 7;
  rdma::Reth reth{0xDEADBEEF, 0x1234, 4096};
  for (auto _ : state) {
    bth.psn = static_cast<std::uint32_t>(state.iterations());
    net::Packet p = rdma::BuildRdmaPacket(1, 2, net::Priority::kRdma, bth,
                                          &reth, nullptr, {});
    auto view = rdma::ParseRdmaPacket(p);
    benchmark::DoNotOptimize(view->bth.psn);
  }
}
BENCHMARK(BM_WireBuildParseReadRequest);

void BM_WireBuildParseWithPayload(benchmark::State& state) {
  std::vector<std::uint8_t> payload(state.range(0));
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadResponseOnly;
  rdma::Aeth aeth{};
  for (auto _ : state) {
    net::Packet p = rdma::BuildRdmaPacket(2, 1, net::Priority::kRdma, bth,
                                          nullptr, &aeth, payload);
    auto view = rdma::ParseRdmaPacket(p);
    benchmark::DoNotOptimize(view->payload.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireBuildParseWithPayload)->Arg(64)->Arg(1024);

void BM_RingCursorsPushPop(benchmark::State& state) {
  RingCursors ring(1024);
  for (auto _ : state) {
    const auto c = ring.Push();
    benchmark::DoNotOptimize(ring.Slot(c));
    ring.Pop();
  }
}
BENCHMARK(BM_RingCursorsPushPop);

void BM_MetadataPublishParse(benchmark::State& state) {
  SparseMemory mem;
  core::RequestMetadata meta;
  meta.rw_type = core::RwType::kRead;
  meta.length = 256;
  std::vector<std::uint8_t> raw(core::kMetadataEntryBytes);
  for (auto _ : state) {
    meta.req_addr = static_cast<std::uint64_t>(state.iterations());
    meta.Publish(mem, 0x1000);
    mem.Read(0x1000, raw);
    auto parsed = core::RequestMetadata::ParseBytes(raw);
    benchmark::DoNotOptimize(parsed.req_addr);
  }
}
BENCHMARK(BM_MetadataPublishParse);

// A write and a read-back striding a 64 MiB range: `pages` through the page
// hash (unregistered space), `mapped` through one flat extent (a registered
// MR, staging arena or app heap).
void BM_SparseMemoryCopy(benchmark::State& state, bool mapped) {
  constexpr std::uint64_t kRange = 64 << 20;
  SparseMemory mem;
  if (mapped) mem.Map(0, kRange);
  std::vector<std::uint8_t> buf(state.range(0), 0xAB);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    mem.Write(addr, buf);
    mem.Read(addr, buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
    addr = (addr + 8192) % kRange;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK_CAPTURE(BM_SparseMemoryCopy, pages, false)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_SparseMemoryCopy, mapped, true)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(32768);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  workload::ZipfianGenerator gen(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.NextScrambled(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void BM_CoroutineDelayRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.Spawn([](sim::Simulation& s) -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) co_await s.Delay(1);
    }(sim));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayRoundTrip);

// --- telemetry hot paths -------------------------------------------------
// The registry's claim is near-zero hot-path cost: a bound Counter::Add is
// one increment through a pointer, and an unbound one is a test-and-skip.
// Both must stay within noise of a plain local increment.

void BM_TelemetryCounterAdd(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  telemetry::Counter counter =
      registry.GetCounter("bench_ops", {{"engine", "spot"}});
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryCounterAddUnbound(benchmark::State& state) {
  telemetry::Counter counter;  // unbound: telemetry off, writes no-op
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterAddUnbound);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  telemetry::Histogram histogram = registry.GetHistogram("bench_lat");
  std::uint64_t v = 1;
  for (auto _ : state) {
    histogram.Observe(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cover all buckets
  }
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRecordOpPhase(benchmark::State& state) {
  // One op-lifecycle stamp: map lookup + array store. This is the most
  // expensive per-op telemetry cost the engines pay.
  telemetry::SpanTracer tracer([] { return Nanos{0}; });
  std::uint64_t seq = 0;
  for (auto _ : state) {
    tracer.RecordOpAt(telemetry::OpKey{1, 0, false, ++seq},
                      telemetry::OpPhase::kIssue, 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRecordOpPhase);

void BM_TelemetrySnapshot(benchmark::State& state) {
  // Snapshot cost scales with series count, not with hot-path traffic.
  telemetry::MetricRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("c" + std::to_string(i)).Add(i);
    registry.GetGauge("g" + std::to_string(i)).Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.TakeSnapshot().counters.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace

BENCHMARK_MAIN();
