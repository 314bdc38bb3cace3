// Chaos seed-sweep driver (the CI job behind "reproducing a failure from a
// seed" in the README).
//
//   chaos_sweep [--engine spot|p4|both] [--seeds N] [--start S]
//               [--trace-dir DIR] [--break-fence] [--jobs N]
//               [--congestion none|incast|victim|pause_storm]
//               [--migration]
//
// Normal mode: runs N seeds per engine, each with a seed-derived mixed
// fault plan (drop + duplicate + reorder + delay, partitions, engine
// crashes on odd seeds). Any checker violation dumps a replayable failure
// trace into --trace-dir and the sweep exits non-zero.
//
// --jobs runs that many simulations concurrently (default: hardware
// concurrency). The report is byte-identical for any jobs value.
//
// --congestion layers a shared-fabric congestion scenario onto every
// seed's fault plan (finite switch queues, ECN+DCQCN, or a PFC pause
// storm); the default leaves the plans — and the report bytes — exactly
// as a pre-congestion sweep produced them.
//
// --migration layers the live region migration onto every seed: a second
// memory server joins the testbed and the region's hot range is copied
// and cut over mid-run (DESIGN.md §14). A seed whose migration never
// completes its cutover is a failure.
//
// --break-fence mode is the harness's own canary: it re-runs the sweep with
// the engines' read-after-write fence disabled and exits zero only if the
// checker *caught* the planted bug on at least one seed AND the captured
// trace replays deterministically to the same violations.
//
// COWBIRD_TEST_SEED=<seed> overrides --start with a single-seed run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "chaos/runner.h"
#include "chaos/sweep.h"

int main(int argc, char** argv) {
  using namespace cowbird::chaos;
  SweepConfig config;
  cowbird::bench::ParallelFlags parallel;
  for (int i = 1; i < argc; ++i) {
    if (parallel.Consume(argc, argv, i)) {
      if (!parallel.ok()) return 2;
      continue;
    }
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--engine") {
      const char* value = next();
      if (value == nullptr) return 2;
      if (std::strcmp(value, "both") == 0) {
        config.engines = {EngineKind::kSpot, EngineKind::kP4};
      } else if (const auto kind = ParseEngineKind(value)) {
        config.engines = {*kind};
      } else {
        std::fprintf(stderr, "chaos_sweep: unknown engine %s\n", value);
        return 2;
      }
    } else if (flag == "--seeds") {
      const char* value = next();
      if (value == nullptr) return 2;
      config.seeds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--start") {
      const char* value = next();
      if (value == nullptr) return 2;
      config.start = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace-dir") {
      const char* value = next();
      if (value == nullptr) return 2;
      config.trace_dir = value;
    } else if (flag == "--break-fence") {
      config.break_fence = true;
    } else if (flag == "--migration") {
      config.migrate = true;
    } else if (flag == "--congestion") {
      const char* value = next();
      if (value == nullptr) return 2;
      if (const auto scenario = ParseCongestionScenario(value)) {
        config.congestion = *scenario;
      } else {
        std::fprintf(stderr, "chaos_sweep: unknown congestion scenario %s\n",
                     value);
        return 2;
      }
    } else {
      std::fprintf(stderr, "chaos_sweep: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  config.jobs = parallel.jobs;
  if (const char* env = std::getenv("COWBIRD_TEST_SEED")) {
    config.start = std::strtoull(env, nullptr, 10);
    config.seeds = 1;
    std::printf("COWBIRD_TEST_SEED=%llu: single-seed run\n",
                static_cast<unsigned long long>(config.start));
  }

  const SweepOutcome outcome = RunSweep(config);
  std::fputs(outcome.report.c_str(), stdout);
  return outcome.ok ? 0 : 1;
}
