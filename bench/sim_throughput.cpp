// Simulator-throughput macro-benchmark and allocation audit.
//
// Unlike the figure benches, the metric here is the *simulator's* wall-clock
// speed, not the simulated system's performance: how many simulated
// read/write operations per real second each engine's datapath sustains, and
// how many heap allocations each operation costs. A global counting
// operator new/delete (compiled into this binary only) is armed exactly over
// the steady-state measure window via HashWorkloadConfig's measure hooks, so
// warmup, topology construction, and teardown never pollute the count.
//
// Two more sections ride along (schema v5):
//
//   * --jobs N (default: hardware concurrency) re-runs each engine's rep
//     batch on a sim::ParallelFor pool and reports aggregate wall
//     throughput plus the batch speedup over the same batch run serially.
//     Per-run outcomes are bit-identical either way (checked).
//   * A scale row runs the 16-node rack fan-in workload (12 clients + 2
//     memory servers + spot + switch) once and reports its op total and
//     wall time.
//
// All *_wall metrics are informational in bench_gate unless --gate-wall;
// the deterministic outcome totals (ops_total, scale_ops) are gated tight.
//
// Emits BENCH_sim_throughput.json (schema v5). The committed baseline under
// bench/baselines/ plus the bench_gate comparator turn this into the CI
// perf-regression gate; see README.md.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/parallel.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace {

// Relaxed atomics: the simulator is single-threaded, but operator new is a
// process-global hook and must stay well-defined no matter who calls it.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void CountAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

}  // namespace

// All deletes funnel to free(): glibc documents free() as the release
// function for aligned_alloc storage too, but GCC's new/delete pairing
// heuristic cannot see that and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  CountAlloc(size);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cowbird::bench {
namespace {

using workload::HashWorkloadConfig;
using workload::LatencyProbeConfig;
using workload::Paradigm;
using workload::ParadigmName;

struct RunStats {
  double ops_per_sec_wall = 0;  // simulated ops retired per real second
  double allocs_per_op = 0;
  double alloc_bytes_per_op = 0;
  double mops_sim = 0;  // simulated MOPS (sanity: sim outcome must not move)
  double events_per_op = 0;  // dispatcher events per retired op
  std::uint64_t ops = 0;
  double wall_ms = 0;
};

struct BenchArgs {
  int reps = 3;
  int threads = 4;
  Nanos measure = Millis(10);
  double write_fraction = 0.3;
  int jobs = 0;  // parallel batch width; 0 → hardware concurrency
};

HashWorkloadConfig BaseConfig(Paradigm paradigm, const BenchArgs& args,
                              int rep) {
  HashWorkloadConfig cfg;
  cfg.paradigm = paradigm;
  cfg.threads = args.threads;
  cfg.record_size = 256;
  cfg.records = 200'000;
  cfg.local_fraction = 0.0;  // every op exercises the remote datapath
  cfg.window = 64;
  cfg.warmup = Micros(300);
  cfg.measure = args.measure;
  cfg.write_fraction = args.write_fraction;
  cfg.seed = 1 + static_cast<std::uint64_t>(rep);
  return cfg;
}

RunStats RunOne(Paradigm paradigm, const BenchArgs& args, int rep) {
  HashWorkloadConfig cfg = BaseConfig(paradigm, args, rep);

  using Clock = std::chrono::steady_clock;
  Clock::time_point t0, t1;
  std::uint64_t allocs = 0, alloc_bytes = 0;
  cfg.on_measure_start = [&] {
    g_allocs.store(0, std::memory_order_relaxed);
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    t0 = Clock::now();
  };
  cfg.on_measure_end = [&] {
    t1 = Clock::now();
    g_counting.store(false, std::memory_order_relaxed);
    allocs = g_allocs.load(std::memory_order_relaxed);
    alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  };

  const auto result = workload::RunHashWorkload(cfg);

  RunStats s;
  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  s.ops = result.ops;
  s.wall_ms = wall_s * 1e3;
  s.ops_per_sec_wall =
      wall_s > 0 ? static_cast<double>(result.ops) / wall_s : 0;
  s.allocs_per_op = result.ops > 0
                        ? static_cast<double>(allocs) /
                              static_cast<double>(result.ops)
                        : 0;
  s.alloc_bytes_per_op = result.ops > 0
                             ? static_cast<double>(alloc_bytes) /
                                   static_cast<double>(result.ops)
                             : 0;
  s.mops_sim = result.mops;
  s.events_per_op = result.ops > 0 ? static_cast<double>(result.sim_events) /
                                         static_cast<double>(result.ops)
                                   : 0;
  return s;
}

double MedianOf(std::vector<double> v) {
  PercentileSampler s;
  for (double x : v) s.Add(x);
  return s.Median();
}

double WallSeconds(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Run-level parallelism: the engine's rep batch on a ParallelFor pool vs the
// same batch serially. The allocation hooks stay disarmed — they are
// process-global and would mix runs — so these rows carry wall and outcome
// metrics only. Per-run results are bit-identical either way; only the wall
// clock may move.
void AggregateSection(Paradigm paradigm, const BenchArgs& args, int jobs,
                      BenchJson& json, Table& table) {
  std::vector<std::uint64_t> serial_ops(
      static_cast<std::size_t>(args.reps), 0);
  std::vector<std::uint64_t> parallel_ops(
      static_cast<std::size_t>(args.reps), 0);
  const double serial_s = WallSeconds([&] {
    for (int rep = 0; rep < args.reps; ++rep) {
      serial_ops[static_cast<std::size_t>(rep)] =
          workload::RunHashWorkload(BaseConfig(paradigm, args, rep)).ops;
    }
  });
  const double parallel_s = WallSeconds([&] {
    sim::ParallelFor(jobs, args.reps, [&](int rep) {
      parallel_ops[static_cast<std::size_t>(rep)] =
          workload::RunHashWorkload(BaseConfig(paradigm, args, rep)).ops;
    });
  });

  std::uint64_t total = 0;
  bool outcomes_match = true;
  for (int rep = 0; rep < args.reps; ++rep) {
    const auto r = static_cast<std::size_t>(rep);
    total += parallel_ops[r];
    outcomes_match = outcomes_match && serial_ops[r] == parallel_ops[r];
  }
  const double agg_ops_per_sec =
      parallel_s > 0 ? static_cast<double>(total) / parallel_s : 0;
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
  table.Row({ParadigmName(paradigm), "agg", std::to_string(total),
             Fmt(agg_ops_per_sec, 0), "-", "-", "-", "-",
             Fmt(parallel_s * 1e3, 1)});
  json.Row({{"engine", ParadigmName(paradigm)}, {"rep", "aggregate"}},
           {{"jobs", static_cast<double>(jobs)},
            {"ops_total", static_cast<double>(total)},
            {"agg_ops_per_sec_wall", agg_ops_per_sec},
            {"agg_speedup_wall", speedup}});
  char claim[128];
  std::snprintf(claim, sizeof(claim),
                "%s batch outcomes identical serial vs --jobs=%d "
                "(speedup %.2fx)",
                ParadigmName(paradigm), jobs, speedup);
  json.ShapeCheck(outcomes_match, claim);
}

// The 16-node rack fabric (12 clients + 2 memory servers + spot + switch,
// workload/scale_workload.h). The op total is deterministic and gated; the
// wall time is informational.
void ScaleSection(BenchJson& json, Table& table) {
  workload::ScaleWorkloadConfig cfg;  // defaults: 12 clients + 2 memory servers
  cfg.records = 50'000;
  cfg.warmup = Micros(200);
  cfg.measure = Millis(1);
  workload::ScaleWorkloadResult serial;
  const double serial_s =
      WallSeconds([&] { serial = workload::RunScaleWorkload(cfg); });
  table.Row({"cowbird", "scale-serial", std::to_string(serial.ops), "-", "-",
             "-", "-", "-", Fmt(serial_s * 1e3, 1)});
  json.Row({{"engine", "cowbird"}, {"rep", "scale"}, {"workers", "serial"}},
           {{"scale_ops", static_cast<double>(serial.ops)},
            {"scale_ms_wall", serial_s * 1e3}});
}

int Main(int argc, char** argv) {
  BenchArgs args;
  ParallelFlags parallel;
  for (int i = 1; i < argc; ++i) {
    if (parallel.Consume(argc, argv, i)) {
      if (!parallel.ok()) {
        std::printf("usage: %s [--reps N] [--threads N] [--measure-ms N] %s\n",
                    argv[0], parallel.Usage());
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      args.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--measure-ms") == 0 && i + 1 < argc) {
      args.measure = Millis(std::atoi(argv[++i]));
    } else {
      std::printf("usage: %s [--reps N] [--threads N] [--measure-ms N] %s\n",
                  argv[0], parallel.Usage());
      return 2;
    }
  }
  args.jobs = parallel.jobs;
  const int jobs = parallel.Jobs();

  Banner("sim_throughput",
         "simulator wall-clock throughput, allocations per op, and "
         "parallel-execution speedups");

  const Paradigm engines[] = {Paradigm::kCowbird, Paradigm::kCowbirdP4};
  BenchJson json("sim_throughput", "perf-gate", /*schema_version=*/5);
  Table table({"engine", "rep", "ops", "ops/sec(wall)", "allocs/op",
               "bytes/op", "events/op", "sim MOPS", "wall ms"});

  std::vector<double> median_allocs;
  std::uint64_t total_ops = 0;
  for (const Paradigm paradigm : engines) {
    std::vector<double> ops_per_sec, allocs_per_op;
    for (int rep = 0; rep < args.reps; ++rep) {
      const RunStats s = RunOne(paradigm, args, rep);
      total_ops += s.ops;
      ops_per_sec.push_back(s.ops_per_sec_wall);
      allocs_per_op.push_back(s.allocs_per_op);
      table.Row({ParadigmName(paradigm), std::to_string(rep),
                 std::to_string(s.ops), Fmt(s.ops_per_sec_wall, 0),
                 Fmt(s.allocs_per_op, 3), Fmt(s.alloc_bytes_per_op, 1),
                 Fmt(s.events_per_op, 1), Fmt(s.mops_sim, 3),
                 Fmt(s.wall_ms, 1)});
      json.Row({{"engine", ParadigmName(paradigm)},
                {"rep", std::to_string(rep)}},
               {{"ops", static_cast<double>(s.ops)},
                {"ops_per_sec_wall", s.ops_per_sec_wall},
                {"allocations_per_op", s.allocs_per_op},
                {"alloc_bytes_per_op", s.alloc_bytes_per_op},
                {"mops_sim", s.mops_sim}});
    }
    median_allocs.push_back(MedianOf(allocs_per_op));

    // Closed-loop p50/p99 sim latency: a sanity field, not a gated metric —
    // the pooled datapath must not change the simulated outcome at all.
    LatencyProbeConfig probe;
    probe.paradigm = paradigm;
    probe.inflight = 16;
    probe.samples = 2000;
    const auto lat = workload::RunLatencyProbe(probe);
    json.Row({{"engine", ParadigmName(paradigm)}, {"rep", "latency"}},
             {{"sim_p50_us", lat.median_us}, {"sim_p99_us", lat.p99_us}});
    std::printf("  %s sim latency: p50=%.2fus p99=%.2fus (%llu samples)\n",
                ParadigmName(paradigm), lat.median_us, lat.p99_us,
                static_cast<unsigned long long>(lat.samples));
  }

  std::printf("  parallel sections: --jobs %d (%d hardware)\n", jobs,
              sim::MaxParallelism());
  for (const Paradigm paradigm : engines) {
    AggregateSection(paradigm, args, jobs, json, table);
  }
  ScaleSection(json, table);

  table.Print();
  json.ShapeCheck(total_ops > 0, "workload retired operations");
  for (std::size_t i = 0; i < median_allocs.size(); ++i) {
    char claim[128];
    std::snprintf(claim, sizeof(claim),
                  "%s steady-state datapath allocations/op = %.3f",
                  ParadigmName(engines[i]), median_allocs[i]);
    // Printed for the record; the hard <=1 gate lives in bench_gate against
    // the committed baseline.
    json.ShapeCheck(true, claim);
  }
  return json.WriteFile() ? 0 : 1;
}

}  // namespace
}  // namespace cowbird::bench

int main(int argc, char** argv) { return cowbird::bench::Main(argc, argv); }
