// Figure 8 (a–d): hash table performance backed by disaggregated memory —
// uniformly accessing 8/64/256/512-byte records with 1..16 application
// threads, for every communication primitive. Dashed "bw-bound" columns for
// (c) and (d) are the 100 Gbps upper bound the paper draws.
//
// Besides the printed tables, every data point lands in
// BENCH_fig08_hash_throughput.json together with the cumulative telemetry
// snapshot of the instrumented (Cowbird) runs.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "telemetry/hub.h"
#include "workload/hash_workload.h"

using namespace cowbird;
using workload::HashWorkloadConfig;
using workload::Paradigm;
using workload::RunHashWorkload;

int main() {
  const Bytes sizes[] = {8, 64, 256, 512};
  const int threads[] = {1, 2, 4, 8, 16};
  const Paradigm series[] = {
      Paradigm::kTwoSidedSync,  Paradigm::kOneSidedSync,
      Paradigm::kOneSidedAsync, Paradigm::kCowbirdNoBatch,
      Paradigm::kCowbird,       Paradigm::kLocalMemory,
  };

  bench::Banner("Figure 8",
                "hash table on disaggregated memory, MOPS by record size");
  bench::BenchJson out("fig08_hash_throughput", "Figure 8");

  // One hub for every Cowbird run: counters accumulate across runs, so the
  // embedded snapshot describes the whole instrumented portion of the
  // bench. (The clock is re-seated per run; per-run gauges leave the hub
  // with each run and the final bound set comes from the last run's
  // snapshot.)
  telemetry::Hub hub([] { return Nanos{0}; });
  telemetry::Snapshot last_instrumented;

  bool cowbird_tracks_local_small = true;
  bool cowbird_hits_bw_large = false;
  double async_vs_sync_min = 1e9;

  for (int si = 0; si < 4; ++si) {
    const Bytes size = sizes[si];
    std::printf("\n(%c) uniformly accessing %llu-byte records\n",
                static_cast<char>('a' + si),
                static_cast<unsigned long long>(size));
    bench::Table table({"threads", "two-sided(sync)", "one-sided(sync)",
                        "one-sided(async)", "cowbird(nobatch)", "cowbird",
                        "local", "bw-bound"});
    for (int t : threads) {
      std::vector<std::string> row{std::to_string(t)};
      double mops[6];
      int i = 0;
      for (Paradigm p : series) {
        HashWorkloadConfig c;
        c.paradigm = p;
        c.threads = t;
        c.record_size = size;
        c.records = 400'000;
        c.measure = Millis(1.5);
        if (p == Paradigm::kCowbird) c.telemetry = &hub;
        const auto result = RunHashWorkload(c);
        if (p == Paradigm::kCowbird) last_instrumented = result.telemetry;
        mops[i] = result.mops;
        row.push_back(bench::Fmt(mops[i], 2));
        out.Row({{"paradigm", workload::ParadigmName(p)},
                 {"record_size", std::to_string(size)},
                 {"threads", std::to_string(t)}},
                {{"mops", mops[i]}});
        ++i;
      }
      // 100 Gbps of 95%-remote records (per-record response bytes).
      const double bw_bound =
          100e9 / 8.0 / static_cast<double>(size) / 0.95 / 1e6;
      row.push_back(size >= 256 ? bench::Fmt(bw_bound, 1) : "-");
      table.Row(row);

      async_vs_sync_min = std::min(async_vs_sync_min, mops[2] / mops[1]);
      if (size <= 64 && t <= 4 && mops[4] < 0.75 * mops[5]) {
        cowbird_tracks_local_small = false;
      }
      if (size == 512 && t == 16 && mops[4] > 0.6 * bw_bound) {
        cowbird_hits_bw_large = true;
      }
    }
    table.Print();
  }

  std::printf("\nShape checks vs the paper:\n");
  out.ShapeCheck(async_vs_sync_min > 3,
                 "(1) async I/O is order-of-magnitude more efficient");
  out.ShapeCheck(cowbird_tracks_local_small,
                 "(3) batching Cowbird closes the gap to local memory for "
                 "small records at low thread counts");
  out.ShapeCheck(cowbird_hits_bw_large,
                 "large records with 16 threads approach the bandwidth "
                 "bound");
  out.SetTelemetry(last_instrumented);
  return out.WriteFile() ? 0 : 1;
}
