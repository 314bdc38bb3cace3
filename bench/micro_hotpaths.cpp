// Google-benchmark microbenchmarks of the implementation's hot paths —
// real wall-clock numbers for the code the simulator executes per event.
// These bound the simulator's own throughput (events/s), independent of
// the modelled virtual-time costs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "core/client.h"
#include "core/request.h"
#include "net/switch.h"
#include "rdma/qp.h"
#include "rdma/wire.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "spot/agent.h"
#include "spot/staging_arena.h"
#include "telemetry/hub.h"
#include "workload/cluster.h"
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

// A write and a read-back striding a 64 MiB range of one host's space.
void BM_SparseMemoryCopy(benchmark::State& state) {
  constexpr std::uint64_t kRange = 64 << 20;
  SparseMemory mem;
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
BENCHMARK(BM_SparseMemoryCopy)->Arg(64)->Arg(1024)->Arg(32768);

// What every simulated host costs before it runs: reserving its address
// space, the first write (one page fault) and the unmap.
void BM_SparseMemoryHost(benchmark::State& state) {
  const std::uint8_t byte = 0xAB;
  for (auto _ : state) {
    SparseMemory mem;
    mem.Write(0x10000, std::span<const std::uint8_t>(&byte, 1));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseMemoryHost);

// One staging block per Spot op: an alloc and its release in one size
// class, served from the class's free list after the first iteration.
void BM_SpotStaging(benchmark::State& state) {
  spot::StagingArena arena(spot::SpotAgent::kStagingStride,
                           spot::SpotAgent::kStagingCapacity);
  const auto len = static_cast<Bytes>(state.range(0));
  for (auto _ : state) {
    const std::optional<std::uint64_t> addr = arena.Alloc(len);
    benchmark::DoNotOptimize(addr);
    arena.Release(*addr, len);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpotStaging)->Arg(64)->Arg(4096)->Arg(65536);

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

// The retransmit pattern: 256 live events (in-flight packets) each
// reschedule themselves about 1 us ahead, and every dispatch re-arms one
// timer 100 us ahead, the way each ACK re-arms a QP's Go-Back-N timer.
// Reports host ns per dispatched event.
void BM_TimerRearm(benchmark::State& state) {
  struct Flow {
    sim::Simulation* sim;
    sim::TimerHandle* timer;
    Nanos period;
    void Fire() {
      timer->ArmAfter(*sim, 100'000, [] {});
      sim->ScheduleAfter(period, [this] { Fire(); });
    }
  };
  sim::Simulation sim;
  sim::TimerHandle timer;
  std::vector<Flow> flows;
  for (int i = 0; i < 256; ++i) flows.push_back({&sim, &timer, 1'000 + i});
  for (Flow& flow : flows) flow.Fire();
  sim.RunFor(200'000);  // past the first timeout: the heap is at steady state
  const std::uint64_t events0 = sim.EventsProcessed();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) sim.RunFor(10'000);
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_event"] =
      elapsed.count() / static_cast<double>(sim.EventsProcessed() - events0);
}
BENCHMARK(BM_TimerRearm);

// Frames from host to switch to host: uplink, switch pipeline and egress
// link, L3 forwarding. /1 sends one frame per iteration through an idle
// fabric; /64 sends 64, alternating kRdma and kControl, into a 25 Gbps
// egress port, so each packet start picks a class behind a backlog.
// Reports host ns per delivered packet, frame copies included.
void BM_LinkHop(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  sim::Simulation sim;
  net::Switch sw(sim, net::Switch::Config{});
  net::HostNic a(sim, 1, BitRate::Gbps(100), 500);
  net::HostNic b(sim, 2, BitRate::Gbps(burst == 1 ? 100 : 25), 500);
  a.ConnectTo(sw);
  b.ConnectTo(sw);
  std::uint64_t delivered = 0;
  b.SetDefaultReceiver([&](net::Packet) { ++delivered; });
  const net::Packet frames[] = {
      net::MakeUdpPacket(1, 2, 1024, net::Priority::kRdma),
      net::MakeUdpPacket(1, 2, 1024, net::Priority::kControl)};
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) a.Send(frames[i % 2]);
    sim.Run();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(delivered);
  if (delivered != static_cast<std::uint64_t>(state.iterations()) *
                       static_cast<std::uint64_t>(burst)) {
    state.SkipWithError("packet lost");
  }
  state.counters["ns_per_packet"] =
      elapsed.count() / static_cast<double>(delivered);
}
BENCHMARK(BM_LinkHop)->Arg(1)->Arg(64);

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

// A client thread with its window full waits for a read whose completion
// an emulated engine writes into its red block over a QP about 30 us after
// issue: the eager loop {PollWait(0); Idle(300)} pays two events for each
// of its ~95 empty checks, a parked PollAny one two-step wake. Reports
// host ns and simulator events per wait (issue and the write's packets
// included, the same in both modes).
void BM_ParkedPoll(benchmark::State& state, bool parked) {
  constexpr std::uint64_t kPool = 0x100000;
  constexpr std::uint64_t kHeap = 0x4000000;
  constexpr std::uint64_t kStaging = 0x9000000;  // on the memory server
  constexpr Nanos kGap = 300;
  workload::Cluster cluster{workload::ClusterSpec{}};
  core::CowbirdClient::Config config;
  config.layout.base = 0x10000;
  config.layout.meta_slots = 64;
  config.layout.data_capacity = KiB(64);
  config.layout.resp_capacity = KiB(64);
  core::CowbirdClient& client = cluster.AddClient(0, config);
  const rdma::MemoryRegion* mr =
      cluster.memory(0).dev->RegisterMemory(kPool, MiB(1));
  client.RegisterRegion(
      core::RegionInfo{1, cluster.memory(0).id(), kPool, mr->rkey, MiB(1)});
  const rdma::QpPair qp =
      rdma::ConnectQueuePairs(*cluster.memory(0).dev, *cluster.client(0).dev);
  sim::SimThread thread(*cluster.client(0).machine, "app");
  auto& ctx = client.thread(0);
  const core::PollId poll = ctx.PollCreate();
  std::vector<core::ReqId> done;
  std::uint64_t retired = 0;
  // The engine's publication: meta_head and read_progress both advance.
  auto publish = [&] {
    ++retired;
    auto& mem = cluster.memory(0).mem;
    mem.WriteValue<std::uint64_t>(kStaging, retired);
    mem.WriteValue<std::uint64_t>(kStaging + 32, retired);
    qp.a->PostSend(rdma::SendWqe{rdma::WqeOp::kWrite, 0, kStaging,
                                 config.layout.RedAddr(0),
                                 client.descriptor().compute_rkey,
                                 static_cast<std::uint32_t>(
                                     core::kRedBlockBytes),
                                 /*signaled=*/false});
  };
  auto wait_once = [&]() -> sim::Task<void> {
    const auto id = co_await ctx.AsyncRead(thread, 1, 0, kHeap, 64);
    ctx.PollAdd(poll, *id);
    cluster.sim.ScheduleAfter(Micros(30), publish);
    if (parked) {
      co_await ctx.PollAny(thread, poll, done, 1, kGap);
    } else {
      for (;;) {
        co_await ctx.PollWait(thread, poll, done, 1, 0);
        if (!done.empty()) break;
        co_await thread.Idle(kGap);
      }
    }
  };
  const std::uint64_t events0 = cluster.sim.EventsProcessed();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    cluster.sim.Spawn(wait_once());
    cluster.sim.Run();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  if (retired != static_cast<std::uint64_t>(state.iterations()) ||
      ctx.reads_retired() != retired) {
    state.SkipWithError("a wait did not complete");
  }
  const auto waits = static_cast<double>(state.iterations());
  state.counters["ns_per_wait"] = elapsed.count() / waits;
  state.counters["events_per_wait"] =
      static_cast<double>(cluster.sim.EventsProcessed() - events0) / waits;
}
BENCHMARK_CAPTURE(BM_ParkedPoll, eager, false);
BENCHMARK_CAPTURE(BM_ParkedPoll, parked, true);

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
  telemetry::CallbackGauges gauges;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("c" + std::to_string(i)).Add(i);
    gauges.Register(registry, "g" + std::to_string(i), {},
                    [i] { return std::int64_t{i}; });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.TakeSnapshot().counters.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

void BM_TelemetryGaugeOwner(benchmark::State& state) {
  // Binding and tearing down one rack's gauges: a 12-client incast rack
  // registers 560 callback gauges, each owner keeping what it registered.
  constexpr int kGauges = 560;
  std::vector<telemetry::Labels> labels;
  for (int i = 0; i < kGauges; ++i) {
    labels.push_back({{"node", "n" + std::to_string(i / 8)},
                      {"qp", std::to_string(i % 8)}});
  }
  telemetry::MetricRegistry registry;
  std::uint64_t cell = 0;
  for (auto _ : state) {
    telemetry::CallbackGauges gauges;
    for (int i = 0; i < kGauges; ++i) {
      gauges.Register(registry, "series", labels[static_cast<std::size_t>(i)],
                      [&cell] { return static_cast<std::int64_t>(cell); });
    }
    gauges.Clear();
  }
  state.SetItemsProcessed(state.iterations() * kGauges);
}
BENCHMARK(BM_TelemetryGaugeOwner);

}  // namespace

BENCHMARK_MAIN();
