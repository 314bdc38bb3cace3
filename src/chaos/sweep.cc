#include "chaos/sweep.h"

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "chaos/trace.h"
#include "sim/parallel.h"

namespace cowbird::chaos {
namespace {

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// Writes the failure trace for one run and reports the path (empty on IO
// failure, with the error appended to the report).
std::string DumpTrace(const std::string& trace_dir, const ChaosOptions& opt,
                      const ChaosResult& result, std::string& report) {
  std::error_code ec;  // best-effort: WriteTraceFile reports the failure
  std::filesystem::create_directories(trace_dir, ec);
  const std::string path = trace_dir + "/chaos-trace-" +
                           EngineKindName(opt.engine) + "-seed" +
                           std::to_string(opt.seed) + ".txt";
  if (!WriteTraceFile(path, MakeTrace(opt, result))) {
    Appendf(report, "chaos_sweep: cannot write trace %s\n", path.c_str());
    return {};
  }
  return path;
}

}  // namespace

SweepOutcome RunSweep(const SweepConfig& config) {
  struct Item {
    EngineKind engine = EngineKind::kSpot;
    std::uint64_t seed = 0;
  };
  std::vector<Item> items;
  for (const EngineKind engine : config.engines) {
    for (std::uint64_t seed = config.start; seed < config.start + config.seeds;
         ++seed) {
      items.push_back({engine, seed});
    }
  }

  struct RunRecord {
    ChaosOptions opt;
    ChaosResult result;
  };
  std::vector<RunRecord> records(items.size());
  const int jobs = config.jobs > 0 ? config.jobs : sim::MaxParallelism();
  sim::ParallelFor(jobs, static_cast<int>(items.size()), [&](int i) {
    const auto index = static_cast<std::size_t>(i);
    ChaosOptions opt = SweepOptions(items[index].engine, items[index].seed,
                                    config.break_fence);
    opt.plan.congestion = config.congestion;
    opt.plan.migrate = config.migrate;
    records[index].opt = opt;
    records[index].result = RunChaos(opt);
  });

  // Serial post-pass in (engine, seed) order: every byte of the report —
  // and the side effects (trace files, the break-fence replay) — is
  // independent of how many jobs ran the sweep.
  SweepOutcome out;
  for (const RunRecord& rec : records) {
    const EngineKind engine = rec.opt.engine;
    const std::uint64_t seed = rec.opt.seed;
    ++out.runs;
    if (!rec.result.counters_exact) {
      Appendf(out.report, "FAIL engine=%s seed=%llu: fault counters inexact\n",
              EngineKindName(engine),
              static_cast<unsigned long long>(seed));
      ++out.failures;
    }
    if (config.migrate && rec.result.migrations_executed != 1) {
      Appendf(out.report,
              "FAIL engine=%s seed=%llu: migration did not cut over "
              "(%llu completed)\n",
              EngineKindName(engine), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(
                  rec.result.migrations_executed));
      ++out.failures;
    }
    if (config.break_fence) {
      if (rec.result.violations.empty()) continue;
      ++out.caught;
      if (out.caught == 1) {
        // Prove the capture→replay loop on the first caught violation.
        const std::string path =
            DumpTrace(config.trace_dir, rec.opt, rec.result, out.report);
        const auto loaded =
            path.empty() ? std::nullopt : ReadTraceFile(path);
        if (!loaded.has_value()) {
          out.replay_ok = false;
        } else {
          const ReplayOutcome outcome = ReplayTrace(*loaded);
          out.replay_ok = outcome.deterministic;
          Appendf(out.report,
                  "caught engine=%s seed=%llu (%zu violations), replay %s: "
                  "%s\n",
                  EngineKindName(engine),
                  static_cast<unsigned long long>(seed),
                  rec.result.violations.size(),
                  outcome.deterministic ? "deterministic" : "MISMATCH",
                  path.c_str());
          if (!outcome.deterministic) {
            out.report += outcome.mismatch;
            out.report += '\n';
          }
        }
      }
      continue;
    }
    if (!rec.result.violations.empty()) {
      ++out.failures;
      const std::string path =
          DumpTrace(config.trace_dir, rec.opt, rec.result, out.report);
      Appendf(out.report,
              "FAIL engine=%s seed=%llu: %zu violations (reads=%llu "
              "crashes=%llu)\n  repro: COWBIRD_TEST_SEED=%llu or "
              "chaos_replay %s\n",
              EngineKindName(engine), static_cast<unsigned long long>(seed),
              rec.result.violations.size(),
              static_cast<unsigned long long>(rec.result.reads_checked),
              static_cast<unsigned long long>(rec.result.crashes_executed),
              static_cast<unsigned long long>(seed), path.c_str());
      for (const Violation& v : rec.result.violations) {
        out.report += "    " + v.Format() + "\n";
      }
    }
  }

  if (config.break_fence) {
    Appendf(out.report,
            "chaos_sweep --break-fence: %llu/%llu seeds caught the planted "
            "bug, replay %s\n",
            static_cast<unsigned long long>(out.caught),
            static_cast<unsigned long long>(out.runs),
            out.replay_ok ? "ok" : "FAILED");
    out.ok = out.caught > 0 && out.replay_ok && out.failures == 0;
  } else {
    Appendf(out.report, "chaos_sweep: %llu runs, %llu failures\n",
            static_cast<unsigned long long>(out.runs),
            static_cast<unsigned long long>(out.failures));
    out.ok = out.failures == 0;
  }
  return out;
}

}  // namespace cowbird::chaos
